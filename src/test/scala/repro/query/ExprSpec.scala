package repro.query

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

class ExprSpec extends AnyFunSuite {

  private def env(vs: (String, JValue)*): Env =
    new Env(vs.map(_._2).toArray, vs.map(_._1).toArray)

  private def ev(e: Expr, en: Env): JValue = Expr.eval(e, en)

  test("path navigates objects and yields NULL on misses") {
    val rec = Json.parse("""{"a":{"b":7}}""")
    val en = env("t" -> rec)
    assert(ev(Expr.path("t.a.b"), en) == JLong(7))
    assert(ev(Expr.path("t.a.zzz"), en) == JNull)
    assert(ev(Expr.path("t.a.b.c"), en) == JNull) // descend through an atom
  }

  test("comparisons across numeric types are numeric") {
    assert(Expr.compare(">", JLong(3), JDouble(2.5)) == JBool(true))
    assert(Expr.compare("<=", JDouble(2.0), JLong(2)) == JBool(true))
  }

  test("two longs compare exactly above 2^53") {
    val big = 1L << 53
    assert(Expr.compare("==", JLong(big), JLong(big + 1)) == JBool(false))
    assert(Expr.compare("!=", JLong(big), JLong(big + 1)) == JBool(true))
    assert(Expr.compare("<", JLong(big), JLong(big + 1)) == JBool(true))
    assert(Expr.compare(">=", JLong(Long.MaxValue), JLong(Long.MaxValue - 1)) == JBool(true))
    // a long against a double compares by exact value too
    assert(Expr.compare(">", JLong(big + 1), JDouble(big.toDouble)) == JBool(true))
    assert(Expr.compare("<", JLong(Long.MaxValue), JDouble(math.pow(2, 63))) == JBool(true))
    assert(Expr.compare("==", JLong(big), JDouble(big.toDouble)) == JBool(true))
  }

  test("ValueOrder: null < boolean < number < string < array/object") {
    val ordered = Seq[JValue](JNull, JBool(false), JBool(true), JLong(-5), JDouble(2.5), JLong(3),
      JString(""), JString("a"), JArray.of(JLong(1)), JObject.of("a" -> JLong(1)))
    for (i <- ordered.indices; j <- ordered.indices)
      assert(Integer.signum(Expr.ValueOrder.compare(ordered(i), ordered(j))) == Integer.compare(i, j),
        s"${ordered(i)} vs ${ordered(j)}")
  }

  test("ValueOrder: NaN and -0.0 have fixed places, longs above 2^53 stay apart") {
    val big = 1L << 53
    val nums = Seq[JValue](JDouble(Double.NegativeInfinity), JLong(Long.MinValue), JDouble(-0.0),
      JLong(0), JDouble(0.0), JLong(big), JDouble(big.toDouble), JLong(big + 1), JLong(Long.MaxValue),
      JDouble(Double.PositiveInfinity), JDouble(Double.NaN))
    for (i <- nums.indices; j <- nums.indices)
      assert(Integer.signum(Expr.ValueOrder.compare(nums(i), nums(j))) == Integer.compare(i, j),
        s"${nums(i)} vs ${nums(j)}")
  }

  test("incompatible comparisons yield NULL (the paper's 10 > \"ten\")") {
    assert(Expr.compare(">", JLong(10), JString("ten")) == JNull)
    assert(Expr.compare("<", JBool(true), JLong(1)) == JNull)
  }

  test("equality on identical non-comparable values still holds") {
    assert(Expr.compare("==", JArray.of(JLong(1)), JArray.of(JLong(1))) == JBool(true))
    assert(Expr.compare("!=", JArray.of(JLong(1)), JLong(1)) == JBool(true))
  }

  test("filters treat NULL as false") {
    assert(!Expr.truthy(JNull))
    assert(!Expr.truthy(JLong(1)))
    assert(Expr.truthy(JBool(true)))
  }

  test("string functions") {
    assert(Expr.call("lowercase", List(JString("AbC"))) == JString("abc"))
    assert(Expr.call("length", List(JString("hello"))) == JLong(5))
    assert(Expr.call("length", List(JLong(5))) == JNull)
  }

  test("array functions") {
    val arr = JArray.of(JString("a"), JString("b"), JString("a"))
    assert(Expr.call("array_count", List(arr)) == JLong(3))
    assert(Expr.call("array_distinct", List(arr)) == JArray.of(JString("a"), JString("b")))
    assert(Expr.call("array_contains", List(arr, JString("b"))) == JBool(true))
    assert(Expr.call("array_contains", List(arr, JString("z"))) == JBool(false))
    assert(Expr.call("is_array", List(arr)) == JBool(true))
    assert(Expr.call("is_array", List(JString("x"))) == JBool(false))
  }

  test("array_pairs produces sorted unordered pairs") {
    val arr = JArray.of(JString("UK"), JString("USA"), JString("China"))
    assert(Expr.call("array_pairs", List(arr)) ==
      JArray.of(JString("China|UK"), JString("China|USA"), JString("UK|USA")))
  }

  test("field_each maps arrays and lifts lone objects (union access)") {
    val obj = Json.parse("""{"spec":{"c":"USA"}}""")
    val arr = Json.parse("""[{"spec":{"c":"USA"}},{"spec":{"c":"UK"}}]""")
    assert(Expr.call("field_each", List(obj, JString("spec.c"))) == JArray.of(JString("USA")))
    assert(Expr.call("field_each", List(arr, JString("spec.c"))) ==
      JArray.of(JString("USA"), JString("UK")))
  }

  test("ExistsIn short-circuits over array elements") {
    val rec = Json.parse("""{"tags":[{"t":"x"},{"t":"jobs"}]}""")
    val en = env("t" -> rec, "ht" -> JNull)
    val e = ExistsIn(Expr.path("t.tags"), "ht",
      Cmp("==", Expr.path("ht.t"), Lit(JString("jobs"))))
    assert(ev(e, en) == JBool(true))
    val e2 = ExistsIn(Expr.path("t.tags"), "ht",
      Cmp("==", Expr.path("ht.t"), Lit(JString("nope"))))
    assert(ev(e2, en) == JBool(false))
  }

  test("compiled closures agree with tree-walking evaluation") {
    val rec = Json.parse(
      """{"a": 5, "b": "Xy", "arr": [1, 2, 3], "o": {"k": 2.5}, "tags": [{"t":"jobs"}]}""")
    val names = Array("t", "ht")
    val exprs = Seq(
      Cmp(">", Expr.path("t.a"), Lit(JLong(3))),
      And(Cmp(">=", Expr.path("t.o.k"), Lit(JDouble(2.5))), Cmp("!=", Expr.path("t.b"), Lit(JString("Z")))),
      Or(Cmp("<", Expr.path("t.a"), Lit(JLong(0))), Func("is_array", List(Expr.path("t.arr")))),
      Func("length", List(Func("lowercase", List(Expr.path("t.b"))))),
      ExistsIn(Expr.path("t.tags"), "ht", Cmp("==", Expr.path("ht.t"), Lit(JString("jobs")))),
      Func("array_count", List(Func("array_distinct", List(Expr.path("t.arr"))))),
    )
    exprs.foreach { e =>
      val compiled = Expr.compile(e, names)
      val en = new Env(Array(rec, JNull), names)
      assert(compiled(en) == Expr.eval(e, en), e.toString)
    }
  }

  test("rootPaths extracts maximal record paths") {
    val e = And(
      Cmp(">", Expr.path("t.a.b"), Lit(JLong(1))),
      ExistsIn(Expr.path("t.xs"), "x", Cmp("==", Expr.path("x.y"), Expr.path("t.c"))))
    assert(Expr.rootPaths(e, "t") == Set(List("a", "b"), List("xs"), List("c")))
  }
}
