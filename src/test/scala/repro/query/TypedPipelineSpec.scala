package repro.query

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.Tagged
import repro.core._
import repro.lsm._

object TypedPipelineSpec {
  private val big = 1L << 53
  private val prefix = "p" * 50 // longer than the zone maps' 48-char string prefix

  /** Values of one field that is a long, a double or a string across
    * records: longs above 2^53, NaN, -0.0, and long strings that share a
    * prefix.
    */
  val scalarGen: Gen[JValue] = Gen.oneOf[JValue](
    JLong(5), JLong(-3), JLong(big), JLong(big + 1), JLong(Long.MaxValue),
    JDouble(5.0), JDouble(Double.NaN), JDouble(-0.0), JDouble(0.0), JDouble(big.toDouble), JDouble(2.5),
    JString(prefix + "a"), JString(prefix + "m"), JString(prefix + "z"), JString("b"))
  val longGen: Gen[JValue] = Gen.oneOf[JValue](JLong(0), JLong(5), JLong(7), JLong(big), JLong(big + 1), JLong(-big))
  val doubleGen: Gen[JValue] = Gen.oneOf[JValue](JDouble(Double.NaN), JDouble(-0.0), JDouble(0.0), JDouble(5.0),
    JDouble(big.toDouble), JDouble(Double.NegativeInfinity))
  val stringGen: Gen[JValue] = Gen.oneOf[JValue](JString(prefix + "a"), JString(prefix + "m"),
    JString(prefix + "z"), JString("m"))

  /** A field that is sometimes missing and sometimes NULL. */
  private def field(name: String, g: Gen[JValue]): Gen[Seq[(String, JValue)]] =
    Gen.frequency(6 -> g.map(v => Seq(name -> v)), 1 -> Gen.const(Seq(name -> JNull)), 2 -> Gen.const(Nil))

  /** Null elements, scalar elements, elements that lack `a`, and elements
    * with a union-typed `a` and a nested array `n`.
    */
  private def elementGen(withA: Boolean): Gen[JValue] = Gen.frequency(
    1 -> Gen.const(JNull),
    1 -> Gen.const(JLong(9)),
    2 -> Gen.oneOf("x", "y").map(b => JObject.of("b" -> JString(b))),
    6 -> (if (!withA) Gen.oneOf("x", "y").map(b => JObject.of("b" -> JString(b)))
          else for { a <- scalarGen; b <- Gen.oneOf("x", "y") } yield JObject.of("a" -> a, "b" -> JString(b))),
    1 -> Gen.const(JObject.of("b" -> JString("x"), "n" -> JArray.of(JArray.of(JLong(1), JLong(2)), JArray.of(), JNull))))

  private def arrayGen(withA: Boolean): Gen[Seq[(String, JValue)]] = Gen.frequency(
    1 -> Gen.const(Nil),
    1 -> Gen.const(Seq("xs" -> JNull)),
    1 -> Gen.const(Seq("xs" -> JArray.of())),
    6 -> Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, elementGen(withA))).map(xs => Seq("xs" -> JArray(xs.toVector))))

  /** Before the first flush no record has `s` or an element's `a`: the first
    * component lacks those columns.
    */
  def recordGen(id: Long, late: Boolean): Gen[JObject] = for {
    v  <- field("v", scalarGen)
    n  <- field("n", longGen)
    d  <- field("d", doubleGen)
    s  <- if (late) field("s", stringGen) else Gen.const(Nil)
    g  <- field("g", Gen.choose(0L, 2L).map(JLong(_)))
    xs <- arrayGen(late)
  } yield JObject((Seq("id" -> JLong(id)) ++ v ++ n ++ d ++ s ++ g ++ xs).toVector)

  sealed trait Op
  final case class Put(r: JObject) extends Op
  final case class Delete(id: Long) extends Op

  /** Three batches: the first two are flushed (the second overwrites and
    * deletes some keys of the first), the third stays in memory and
    * overwrites and deletes keys of both.
    */
  val batchesGen: Gen[Seq[Seq[Op]]] = {
    def batch(ids: Seq[Long], late: Boolean): Gen[Seq[Op]] = Gen.sequence[Seq[Op], Op](ids.map { id =>
      Gen.frequency(6 -> recordGen(id, late).map(Put(_): Op), 1 -> Gen.const(Delete(id): Op))
    })
    for {
      b1 <- batch(0L until 40L, late = false)
      b2 <- batch((30L until 70L), late = true)
      b3 <- batch((0L until 80L by 7L), late = true)
    } yield Seq(b1, b2, b3)
  }

  private val count = Agg("count", null, "c")
  private def p(s: String) = Expr.path(s)
  val ops = Seq(">", ">=", "<", "<=", "==", "!=")
  val literals = Seq[JValue](JLong(5), JLong(big + 1), JDouble(0.0), JDouble(Double.NaN), JDouble(2.5),
    JString(prefix + "m"), JString("b"))

  /** The plans: every comparison operator against long, double and string
    * literals on each field (also where it is missing), a filter that
    * rejects records before other columns are read, UNNEST and SOME over
    * element sub-paths, and COUNT/MAX/MIN with 0 or 1 key.
    */
  val plans: Seq[(String, PlanSpec)] = {
    def grouped(pipe: List[PipeOp], keys: Seq[(String, Expr)], aggs: Agg*) = PlanSpec(pipe, Some(GroupSpec(keys, aggs)))
    val filters = for (f <- Seq("v", "n", "d", "s"); op <- ops; lit <- literals) yield
      s"t.$f $op ${Tagged(lit)}" -> grouped(List(FilterOp(Cmp(op, p(s"t.$f"), Lit(lit)))), Seq("g" -> p("t.g")),
        count, Agg("max", p("t.v"), "mx"), Agg("min", p("t.d"), "mn"))
    val unnest = UnnestOp(p("t.xs"), "x")
    val elements = for (op <- ops; lit <- Seq(JLong(5), JDouble(Double.NaN), JString(prefix + "m"))) yield
      s"x.a $op ${Tagged(lit)}" -> grouped(List(unnest, FilterOp(Cmp(op, p("x.a"), Lit(lit)))), Nil,
        count, Agg("max", p("x.a"), "mx"), Agg("min", p("x.a"), "mn"))
    val somes = for (op <- ops; lit <- Seq(JLong(5), JDouble(0.0), JString(prefix + "m"))) yield
      s"some x.a $op ${Tagged(lit)}" -> grouped(
        List(FilterOp(And(Cmp("!=", p("t.n"), Lit(JLong(7))), ExistsIn(p("t.xs"), "x", Cmp(op, p("x.a"), Lit(lit)))))),
        Seq("g" -> p("t.g")), count, Agg("max", p("t.d"), "mx"))
    filters ++ elements ++ somes ++ Seq(
      "max/min, no key" -> grouped(Nil, Nil, count, Agg("max", p("t.d"), "mxd"), Agg("min", p("t.d"), "mnd"),
        Agg("max", p("t.v"), "mxv"), Agg("min", p("t.v"), "mnv"), Agg("max", p("t.s"), "mxs")),
      "max/min by key" -> grouped(Nil, Seq("g" -> p("t.g")), Agg("max", p("t.d"), "mxd"), Agg("min", p("t.d"), "mnd"),
        Agg("max", p("t.v"), "mxv"), Agg("min", p("t.v"), "mnv")),
      "late conjuncts" -> grouped(List(FilterOp(And(Cmp(">=", p("t.n"), Lit(JLong(5))),
        Cmp("!=", p("t.s"), Lit(JString(prefix + "a")))))), Seq("g" -> p("t.g")), count,
        Agg("max", p("t.v"), "mx"), Agg("min", p("t.d"), "mn")),
      "unnest, count by element key" -> grouped(List(unnest), Seq("b" -> p("x.b")), count,
        Agg("max", p("x.a"), "mx")),
      "filter then unnest" -> grouped(List(FilterOp(Cmp("<", p("t.n"), Lit(JLong(big)))), unnest),
        Seq("g" -> p("t.g")), count, Agg("min", p("x.a"), "mn")),
      "unnest unused" -> grouped(List(unnest), Nil, count),
      "nested arrays" -> grouped(List(unnest, UnnestOp(p("x.n"), "y")), Seq("y" -> Var("y")), count),
      "select" -> PlanSpec(List(unnest, FilterOp(Cmp("!=", p("x.a"), Lit(JLong(5))))),
        select = Seq("id" -> p("t.id"), "a" -> p("x.a"), "v" -> p("t.v"))))
  }

  private val config = LsmConfig(pageSize = 2048, memBudgetBytes = 1L << 20, amaxLeafRecords = 8,
    maxComponents = 8, bufferCachePages = 256)

  def build(layout: LayoutKind, batches: Seq[Seq[Op]]): (LsmDataset, java.io.File) = {
    val dir = java.nio.file.Files.createTempDirectory(s"typed-${layout.name}").toFile
    val ds = new LsmDataset("typed", dir, layout, config, new BufferCache(config.bufferCachePages))
    batches.zipWithIndex.foreach { case (b, i) =>
      b.foreach { case Put(r) => ds.upsert(r); case Delete(id) => ds.delete(id) }
      if (i < batches.length - 1) ds.flush()
    }
    (ds, dir)
  }

  def rows(r: QueryResult): Seq[String] = r.rows.map(Tagged.row).sorted
}

/** Differential test of CodeGen's typed slots and kernels: on every layout
  * it must give what the Interpreted engine gives on Open, value kinds
  * included.
  */
class TypedPipelineSpec extends AnyFunSuite {
  import TypedPipelineSpec._

  test("property: CodeGen on every layout equals Interpreted on Open") {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(12),
      Prop.forAll(batchesGen) { batches =>
        val built = LayoutKind.all.map(l => l -> build(l, batches)).toMap
        try {
          val open = built(LayoutKind.Open)._1
          plans.forall { case (name, plan) =>
            val want = rows(Engine.run(open, plan, ExecMode.Interpreted))
            LayoutKind.all.forall { layout =>
              val got = rows(Engine.run(built(layout)._1, plan, ExecMode.CodeGen))
              if (got != want) println(s"$name on ${layout.name}:\n got  $got\n want $want")
              got == want
            }
          }
        } finally built.values.foreach { case (_, dir) => dir.listFiles().foreach(_.delete()); dir.delete() }
      })
    assert(res.passed, res.status.toString)
  }
}
