package repro.encoding

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

class CodecSpec extends AnyFunSuite {

  /** Run a ScalaCheck property and assert it passed. */
  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(50), p)
    assert(res.passed, res.status.toString)
  }

  private def forAll[A](g: Gen[A])(f: A => Boolean): Unit = check(Prop.forAll(g)(f))

  test("varint round-trips boundary values") {
    val w = new BufWriter()
    val vals = Seq(0L, 1L, 127L, 128L, 255L, 16384L, Int.MaxValue.toLong, Long.MaxValue)
    vals.foreach(w.writeVarLong)
    val r = new BufReader(w.toArray)
    vals.foreach(v => assert(r.readVarLong() == v))
  }

  test("zigzag round-trips negative values") {
    val w = new BufWriter()
    val vals = Seq(0L, -1L, 1L, -1234567L, Long.MinValue + 1, Long.MaxValue)
    vals.foreach(w.writeZigZag)
    val r = new BufReader(w.toArray)
    vals.foreach(v => assert(r.readZigZag() == v))
  }

  test("fixed-width little-endian round-trips") {
    val w = new BufWriter()
    w.writeLongLE(-42L); w.writeDoubleLE(3.14159); w.writeIntLE(-7)
    val r = new BufReader(w.toArray)
    assert(r.readLongLE() == -42L)
    assert(r.readDoubleLE() == 3.14159)
    assert(r.readIntLE() == -7)
  }

  test("string write/read round-trips unicode") {
    val w = new BufWriter()
    w.writeString("héllo wörld — ünïcode ✓")
    assert(new BufReader(w.toArray).readString() == "héllo wörld — ünïcode ✓")
  }

  test("def-level codec round-trips mixed runs and literals") {
    val levels = Seq.fill(100)(0) ++ Seq(1, 2, 3, 1, 2) ++ Seq.fill(50)(3) ++ Seq(0, 1)
    val w = new DefLevelWriter(3)
    levels.foreach(w.write)
    val bytes = w.finish()
    val r = new DefLevelReader(bytes)
    assert(r.numValues == levels.length)
    levels.foreach(l => assert(r.next() == l))
  }

  test("def-level skip matches sequential reads") {
    val levels = (0 until 500).map(i => i % 4)
    val w = new DefLevelWriter(3)
    levels.foreach(w.write)
    val bytes = w.finish()
    val r = new DefLevelReader(bytes)
    r.skip(123)
    assert(r.next() == levels(123))
    r.skip(200)
    assert(r.next() == levels(324))
  }

  test("def-level codec property: arbitrary level sequences") {
    forAll(Gen.listOf(Gen.choose(0, 7))) { (ls: List[Int]) =>
      val w = new DefLevelWriter(7)
      ls.foreach(w.write)
      val r = new DefLevelReader(w.finish())
      ls.forall(l => r.next() == l)
    }
  }

  test("def-level literal runs are cut at the 512-value cap, at bit widths 1-4") {
    // The runs of an encoded stream, in order: (literal?, length).
    def runsOf(bytes: Array[Byte], bitWidth: Int): Seq[(Boolean, Int)] = {
      val in = new BufReader(bytes)
      assert(in.readByte() == bitWidth)
      in.readVarInt()
      val out = Seq.newBuilder[(Boolean, Int)]
      while (in.hasRemaining) {
        val h = in.readVarInt()
        val n = h >>> 1
        if ((h & 1) == 1) { out += true -> n; in.skipBytes((n * bitWidth + 7) / 8) }
        else { out += false -> n; in.readVarInt() }
      }
      out.result()
    }
    for (bitWidth <- 1 to 4) {
      val top = (1 << bitWidth) - 1
      val alternating = (0 until 1100).map(i => if (i % 2 == 0) 0 else top)
      // Stretches of seven equal values, one short of an RLE run: the
      // buffer passes the cap at 74 × 7 = 518 values.
      val sevens = (0 until 1200).map(i => if (i / 7 % 2 == 0) top else 0)
      val thenRle = (0 until 600).map(i => if (i % 2 == 0) 0 else top) ++ Seq.fill(20)(0)
      Seq(
        alternating -> Seq(true -> 512, true -> 512, true -> 76),
        sevens -> Seq(true -> 518, true -> 518, true -> 164),
        thenRle -> Seq(true -> 512, true -> 88, false -> 20),
      ).foreach { case (levels, want) =>
        val w = new DefLevelWriter(top)
        levels.foreach(w.write)
        val bytes = w.finish()
        assert(runsOf(bytes, bitWidth) == want, s"bit width $bitWidth")
        val r = new DefLevelReader(bytes)
        assert(r.numValues == levels.length)
        levels.foreach(l => assert(r.next() == l))
      }
    }
  }

  test("all-equal def levels collapse to a few bytes (RLE)") {
    val w = new DefLevelWriter(5)
    (0 until 100000).foreach(_ => w.write(5))
    assert(w.finish().length < 20)
  }

  test("delta longs round-trip and compress monotone sequences") {
    val vals = (0L until 10000L).map(_ * 3 + 7)
    val w = new DeltaLongWriter
    vals.foreach(w.writeLong)
    val bytes = w.finish()
    assert(bytes.length < vals.length * 2) // ~1 B per monotone delta
    val r = new DeltaLongReader(bytes, 0, bytes.length)
    vals.foreach(v => assert(r.nextLong() == v))
  }

  test("delta longs property: arbitrary values") {
    forAll(Gen.listOf(Gen.choose(Long.MinValue / 2, Long.MaxValue / 2))) { (ls: List[Long]) =>
      val w = new DeltaLongWriter
      ls.foreach(w.writeLong)
      val bytes = w.finish()
      val r = new DeltaLongReader(bytes, 0, bytes.length)
      ls.forall(v => r.nextLong() == v)
    }
  }

  test("delta strings round-trip and exploit shared prefixes") {
    val vals = (0 until 1000).map(i => f"common-prefix-$i%06d")
    val w = new DeltaStringWriter
    vals.foreach(w.writeString)
    val bytes = w.finish()
    assert(bytes.length < vals.map(_.length).sum / 2)
    val r = new DeltaStringReader(bytes, 0, bytes.length)
    vals.foreach(v => assert(r.nextString() == v))
  }

  test("delta strings skip keeps the prefix chain intact") {
    val vals = (0 until 100).map(i => s"pre$i-suffix")
    val w = new DeltaStringWriter
    vals.foreach(w.writeString)
    val bytes = w.finish()
    val r = new DeltaStringReader(bytes, 0, bytes.length)
    r.skip(42)
    assert(r.nextString() == vals(42))
  }

  test("bit-packed booleans round-trip across byte boundaries") {
    val vals = (0 until 37).map(i => i % 3 == 0)
    val w = new BitBoolWriter
    vals.foreach(w.writeBool)
    val bytes = w.finish()
    assert(bytes.length == 5)
    val r = new BitBoolReader(bytes, 0, bytes.length)
    vals.foreach(v => assert(r.nextBool() == v))
  }

  test("snappy page frames round-trip") {
    val raw = Array.tabulate[Byte](128 * 1024)(i => (i % 17).toByte)
    val framed = PageCompressor.compress(raw)
    assert(framed.length < raw.length / 2) // repetitive page compresses well
    assert(PageCompressor.decompress(framed).toSeq == raw.toSeq)
  }
}
