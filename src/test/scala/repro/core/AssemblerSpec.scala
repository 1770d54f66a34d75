package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.Tagged

/** The reader-driven [[Assembler]] against the Shape-based reference
  * ([[ShapeAssembler]]) on random records and random projections, over two
  * chunks: one written before the second batch of records added columns and
  * unions to the schema, one after.
  */
class AssemblerSpec extends AnyFunSuite {

  private val big = 1L << 53
  private val leafGen: Gen[JValue] = Gen.frequency(
    2 -> Gen.const(JNull),
    3 -> Gen.choose(-5L, 5L).map(JLong(_)),
    1 -> Gen.oneOf(big, big + 1, Long.MaxValue, Long.MinValue).map(JLong(_)),
    1 -> Gen.choose(-1.0, 1.0).map(JDouble(_)),
    1 -> Gen.oneOf(Double.NaN, -0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity).map(JDouble(_)),
    2 -> Gen.oneOf("x", "y", "", "é中").map(JString(_)),
    1 -> Gen.oneOf(true, false).map(JBool(_)))

  // Arrays are empty, nested, or hold null elements; a name takes different
  // kinds across records, so unions with object and array alternatives form
  // at fields and at array elements.
  private def valueGen(depth: Int): Gen[JValue] =
    if (depth == 0) leafGen
    else Gen.frequency(
      4 -> leafGen,
      2 -> Gen.choose(0, 3).flatMap(Gen.listOfN(_, Gen.lzy(valueGen(depth - 1)))).map(xs => JArray(xs.toVector)),
      2 -> objGen(depth - 1))

  private def objGen(depth: Int): Gen[JObject] =
    Gen.choose(0, 4).flatMap(Gen.listOfN(_, Gen.zip(Gen.oneOf("a", "b", "c"), Gen.lzy(valueGen(depth)))))
      .map(fs => JObject(fs.toVector))

  // Wide sparse records: a few of sixty rarely present fields.
  private val sparse = (0 until 60).map(i => s"s$i")
  private val recordGen: Gen[JObject] = for {
    o <- objGen(3)
    k <- Gen.choose(0, 4)
    extra <- Gen.listOfN(k, Gen.zip(Gen.oneOf(sparse), leafGen))
  } yield JObject(o.fields ++ extra)
  private val batchGen = Gen.choose(1, 12).flatMap(Gen.listOfN(_, recordGen))

  /** Encoded chunks of every column of `schema` as it is now. */
  private def chunks(schema: Schema, recs: Seq[JObject]): Array[Array[Byte]] = {
    val writers = schema.columns.map(new ColumnChunkWriter(_)).toArray
    val sink = new ColumnSink {
      def entry(col: Int, d: Int, v: JValue): Unit = writers(col).entry(d, v)
      def delimiter(col: Int, d: Int): Unit = writers(col).delimiter(d)
    }
    val striper = new Striper(schema)
    recs.foreach(striper.stripe(_, sink))
    writers.map(_.finish())
  }

  /** Readers of columns `ids` of the final `schema` over chunks written
    * with the first `chunks.length` columns: later ones are absent.
    */
  private def readers(schema: Schema, cs: Array[Array[Byte]], ids: Array[Int]): Array[ColumnChunkReader] =
    ids.map { id =>
      val m = schema.column(id)
      if (id < cs.length) new ColumnChunkReader(m, cs(id), 0, cs(id).length) else ColumnChunkReader.allAbsent(m)
    }

  /** Every node reachable by an object path (the accessor roots). */
  private def pathNodes(n: SchemaNode): Seq[SchemaNode] = n +: (n match {
    case on: ObjectNode => on.fields.valuesIterator.toSeq.flatMap(pathNodes)
    case un: UnionNode  => un.alternatives.get(Kind.Obj).toSeq.flatMap(pathNodes)
    case _              => Nil
  })

  private def check(a: Seq[JObject], b: Seq[JObject], pick: Long): Boolean = {
    val schema = new Schema
    a.foreach(schema.observe)
    val ca = chunks(schema, a)
    b.foreach(schema.observe)
    val cb = chunks(schema, b)
    val rnd = new scala.util.Random(pick)
    val all = (0 until schema.numColumns).toArray
    val projection = if (rnd.nextInt(4) == 0) null else all.filter(_ => rnd.nextBoolean())
    val projected = if (projection == null) all else projection
    val nodes = pathNodes(schema.root)
    val node = nodes(rnd.nextInt(nodes.length))
    val below = Schema.leavesUnder(node).toSet
    val nodeProjection = projected.filter(below)

    Seq(a -> ca, b -> cb).forall { case (recs, cs) =>
      val asm = new Assembler(schema, projection)
      val rs = readers(schema, cs, projected)
      val ref = readers(schema, cs, projected)
      val nodeAsm = new Assembler(schema, nodeProjection)
      val compiled = nodeAsm.at(node)
      val nodeRs = readers(schema, cs, nodeProjection)
      val nodeRef = readers(schema, cs, nodeProjection)
      def shapes(ids: Array[Int], from: Array[ColumnChunkReader]): Int => Shape = {
        val out = new Array[Shape](schema.numColumns)
        ids.indices.foreach(i => out(ids(i)) = from(i).nextRecordShape())
        out(_)
      }
      val same = recs.forall { _ =>
        val got = Tagged(asm.record(rs))
        val want = Tagged(ShapeAssembler.assembleRecord(schema, shapes(projected, ref)))
        val gotNode = if (compiled == null) None else Option(compiled.read(nodeRs))
        val wantNode = ShapeAssembler.assembleNode(node, shapes(nodeProjection, nodeRef))
        got == want && gotNode.map(Tagged(_)) == wantNode.map(Tagged(_))
      }
      // Each record was read exactly once from each reader: nothing is left.
      same && (rs ++ nodeRs).forall(r => !r.present || r.atEnd)
    }
  }

  test("property: reader-driven assembly equals the Shape reference for random projections") {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300),
      Prop.forAll(batchGen, batchGen, Gen.long)(check))
    assert(res.passed, res.status.toString)
  }

  test("an array of a component without the array's leaves reads as absent and consumes nothing") {
    val a = Seq(JObject.of("k" -> JLong(1)))
    val b = Seq(JObject.of("k" -> JLong(2), "xs" -> JArray.of(JObject.of("v" -> JDouble(-0.0)), JNull)))
    assert(check(a, b, 7L))
    val schema = new Schema
    (a ++ b).foreach(schema.observe)
    val asm = new Assembler(schema, null)
    val old = readers(schema, chunks({ val s = new Schema; a.foreach(s.observe); s }, a), Array(0, 1))
    assert(Tagged(asm.record(old)) == """{"k": long 1}""")
  }
}
