package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.RoundTrip.normalize

/** Chunk-level behaviours not covered by whole-record round-trips: batched
  * skipping (§4.4) and absent-column synthesis (§3.2.2).
  */
class ColumnChunkSpec extends AnyFunSuite {

  private def objs(ss: String*): Seq[JObject] = ss.map(Json.parse(_).asInstanceOf[JObject])

  private def chunksFor(recs: Seq[JObject]): (Schema, Array[Array[Byte]]) = {
    val schema = new Schema
    recs.foreach(schema.observe)
    val writers = schema.columns.map(new ColumnChunkWriter(_)).toArray
    val sink = new ColumnSink {
      def entry(c: Int, d: Int, v: JValue): Unit = writers(c).entry(d, v)
      def delimiter(c: Int, d: Int): Unit = writers(c).delimiter(d)
    }
    val striper = new Striper(schema)
    recs.foreach(striper.stripe(_, sink))
    (schema, writers.map(_.finish()))
  }

  test("skipRecords(n) positions scalar and array columns identically to n reads") {
    val base = objs(
      """{"a": 1, "xs": [1, 2], "s": "one"}""",
      """{"a": 2, "xs": [], "s": "two"}""",
      """{"xs": [3], "s": "three"}""",
      """{"a": 4}""",
      """{"a": 5, "xs": [4, 5, 6], "s": "five"}""")
    val recs = (1 to 20).flatMap(_ => base)
    val (schema, chunks) = chunksFor(recs)
    for (skip <- Seq(0, 1, 7, 33, 99)) {
      schema.columns.foreach { m =>
        val viaSkip = new ColumnChunkReader(m, chunks(m.columnId), 0, chunks(m.columnId).length)
        viaSkip.skipRecords(skip)
        val viaRead = new ColumnChunkReader(m, chunks(m.columnId), 0, chunks(m.columnId).length)
        (0 until skip).foreach(_ => viaRead.nextRecordShape())
        assert(viaSkip.nextRecordShape() == viaRead.nextRecordShape(), s"col=${m.path} skip=$skip")
      }
    }
  }

  test("skipRecords across union columns") {
    val recs = objs(
      """{"v": 1}""", """{"v": "s"}""", """{"v": [1, 2]}""", """{"v": {"k": 1}}""", """{}""")
    val (schema, chunks) = chunksFor(recs)
    schema.columns.foreach { m =>
      val r1 = new ColumnChunkReader(m, chunks(m.columnId), 0, chunks(m.columnId).length)
      r1.skipRecords(3)
      val r2 = new ColumnChunkReader(m, chunks(m.columnId), 0, chunks(m.columnId).length)
      (0 until 3).foreach(_ => r2.nextRecordShape())
      assert(r1.nextRecordShape() == r2.nextRecordShape(), m.path)
    }
  }

  test("allAbsent reader yields absent shapes indefinitely") {
    val meta = ColumnMeta(0, "x", repro.encoding.AtomicType.TLong, 3, Vector(1))
    val r = ColumnChunkReader.allAbsent(meta)
    (0 until 10).foreach(_ => assert(r.nextRecordShape() == SLeaf(0, null)))
    r.skipRecords(100) // no-op, must not throw
  }

  test("chunk min/max statistics track present values only") {
    val recs = objs("""{"a": 5}""", """{"a": 1}""", """{}""", """{"a": 9}""")
    val schema = new Schema
    recs.foreach(schema.observe)
    val w = new ColumnChunkWriter(schema.column(0))
    val sink = new ColumnSink {
      def entry(c: Int, d: Int, v: JValue): Unit = w.entry(d, v)
      def delimiter(c: Int, d: Int): Unit = w.delimiter(d)
    }
    val striper = new Striper(schema)
    recs.foreach(striper.stripe(_, sink))
    assert(w.minValue == JLong(1))
    assert(w.maxValue == JLong(9))
    assert(w.presentCount == 3)
  }

  test("string chunk statistics are lexicographic") {
    val recs = objs("""{"s": "pear"}""", """{"s": "apple"}""", """{"s": "zucchini"}""")
    val schema = new Schema
    recs.foreach(schema.observe)
    val w = new ColumnChunkWriter(schema.column(0))
    val sink = new ColumnSink {
      def entry(c: Int, d: Int, v: JValue): Unit = w.entry(d, v)
      def delimiter(c: Int, d: Int): Unit = w.delimiter(d)
    }
    val striper = new Striper(schema)
    recs.foreach(striper.stripe(_, sink))
    assert(w.minValue == JString("apple"))
    assert(w.maxValue == JString("zucchini"))
  }

  test("round-trip through a fresh schema deserialized from bytes") {
    val recs = objs(
      """{"name": "John", "games": ["NBA", ["FIFA"]]}""",
      """{"name": {"first": "Ann"}}""")
    val (schema, chunks) = chunksFor(recs)
    val schema2 = Schema.deserialize(schema.serialize())
    val readers = schema2.columns.map(m =>
      new ColumnChunkReader(m, chunks(m.columnId), 0, chunks(m.columnId).length)).toArray
    val asm = new Assembler(schema2, null)
    recs.foreach(in => assert(normalize(asm.record(readers)) == normalize(in)))
  }
}
