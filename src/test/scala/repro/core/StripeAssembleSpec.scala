package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.core.RoundTrip._

/** End-to-end §3 round-trips: records → extended-Dremel columns → records. */
class StripeAssembleSpec extends AnyFunSuite {

  private def objs(ss: String*): Seq[JObject] = ss.map(Json.parse(_).asInstanceOf[JObject])

  private def roundtrips(ss: String*): Unit = {
    val recs = objs(ss: _*)
    val (_, out) = through(recs)
    recs.zip(out).zipWithIndex.foreach { case ((in, got), i) =>
      assert(normalize(got) == normalize(in), s"record $i: in=${in.render} got=${got.render}")
    }
  }

  test("flat scalars of every type") {
    roundtrips(
      """{"a": 1, "b": "x", "c": 1.5, "d": true}""",
      """{"a": 2, "b": "y", "c": -0.25, "d": false}""")
  }

  test("missing fields come back missing (def level below max)") {
    roundtrips(
      """{"a": 1, "b": "x"}""",
      """{"a": 2}""",
      """{"b": "z"}""",
      """{}""")
  }

  test("nested objects with partial presence (Figure 4's name column)") {
    roundtrips(
      """{"id": 1}""",
      """{"id": 2, "name": {}}""",
      """{"id": 3, "name": {"first": "John", "last": "Smith"}}""",
      """{"id": 4, "name": {"last": "Jones"}}""")
  }

  test("simple arrays with per-record lengths (delimiter encoding)") {
    roundtrips(
      """{"xs": [1, 2, 3]}""",
      """{"xs": [4]}""",
      """{"xs": []}""",
      """{"xs": [5, 6]}""",
      """{}""")
  }

  test("arrays of objects with missing leaves (Figure 4's games/title)") {
    roundtrips(
      """{"games": [{"title": "NFL"}]}""",
      """{"games": [{"title": "FIFA", "consoles": ["PC", "PS4"]}]}""",
      """{"games": [{"title": "NBA", "consoles": ["PS4", "PC"]}, {"title": "NFL", "consoles": ["XBOX"]}]}""",
      """{}""")
  }

  test("nested arrays end with coalesced delimiters (outer subsumes inner)") {
    roundtrips(
      """{"m": [[1, 2], [3]]}""",
      """{"m": [[4]]}""",
      """{"m": [[], [5]]}""",
      """{"m": []}""",
      """{"m": [[6, 7], []]}""")
  }

  test("null array elements round-trip as null (slot-level encoding)") {
    roundtrips(
      """{"xs": [1, null, 3]}""",
      """{"xs": [null]}""",
      """{"xs": [2]}""")
  }

  test("empty objects as array elements survive") {
    roundtrips(
      """{"xs": [{"a": 1}, {}, {"a": 3}]}""",
      """{"xs": [{}]}""")
  }

  test("scalar union: string vs long (heterogeneous age example)") {
    roundtrips(
      """{"id": 1, "age": 25}""",
      """{"id": 2, "age": "old"}""",
      """{"id": 3}""",
      """{"id": 4, "age": 30}""")
  }

  test("union of string and object (Figure 6's name)") {
    roundtrips(
      """{"name": "John"}""",
      """{"name": {"first": "Ann", "last": "Brown"}}""",
      """{"name": "Zoe"}""",
      """{}""")
  }

  test("array elements alternating string and array-of-strings (Figure 6's games)") {
    roundtrips(
      """{"name": "John", "games": ["NBA", ["FIFA", "PES"], "NFL"]}""",
      """{"name": {"first": "Ann", "last": "Brown"}, "games": ["Halo", "NFL"]}""")
  }

  test("union of object and array-of-objects (wos address_name shape)") {
    roundtrips(
      """{"addr": {"spec": {"country": "USA"}}}""",
      """{"addr": [{"spec": {"country": "USA"}}, {"spec": {"country": "UK"}}]}""",
      """{"addr": {"spec": {"country": "Japan"}}}""")
  }

  test("columns inferred later read as absent for earlier records") {
    val recs = objs(
      """{"a": 1}""",
      """{"a": 2, "b": {"c": "late"}}""")
    val (schema, out) = through(recs)
    assert(schema.numColumns == 2)
    assert(normalize(out.head) == normalize(recs.head))
    assert(normalize(out(1)) == normalize(recs(1)))
  }

  test("deep nesting: arrays of objects of arrays") {
    roundtrips(
      """{"a": [{"b": [{"c": [1, 2]}, {"c": []}]}, {"b": []}]}""",
      """{"a": []}""",
      """{"a": [{"b": [{"c": [3]}]}]}""")
  }

  test("many records alternate all shapes (stress the delimiter automaton)") {
    val base = Seq(
      """{"g": [1, 2]}""",
      """{"g": []}""",
      """{}""",
      """{"g": [3]}""",
      """{"g": [null, 4]}""",
      """{"g": "scalar-now"}""",
      """{"g": [[5], [6, 7]]}""")
    roundtrips((1 to 5).flatMap(_ => base): _*)
  }

  test("property: nulls-free nested records round-trip exactly") {
    val leafGen: Gen[JValue] = Gen.oneOf(
      Gen.choose(-100L, 100L).map(JLong(_)),
      Gen.choose(-10.0, 10.0).map(JDouble(_)),
      Gen.oneOf("x", "y", "zz").map(JString(_)),
      Gen.oneOf(true, false).map(JBool(_)))
    def valueGen(depth: Int): Gen[JValue] =
      if (depth == 0) leafGen
      else Gen.frequency(
        4 -> leafGen,
        2 -> Gen.nonEmptyListOf(Gen.lzy(valueGen(depth - 1))).map(xs => JArray(xs.take(4).toVector)),
        2 -> objGen(depth - 1))
    // At least one field per object: an object (or array of objects) whose
    // fields are never observed produces no columns and legitimately cannot
    // round-trip (degenerate case covered by the idempotence property below).
    def objGen(depth: Int): Gen[JObject] =
      Gen.atLeastOne(Seq("f1", "f2", "f3")).flatMap { ks =>
        Gen.sequence[Vector[JValue], JValue](ks.map(_ => valueGen(depth))).map { vs =>
          JObject(ks.toVector.zip(vs))
        }
      }
    val recsGen = Gen.nonEmptyListOf(objGen(3)).map(_.take(20))
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(40),
      Prop.forAll(recsGen) { recs =>
        val (_, out) = through(recs)
        recs.zip(out).forall { case (in, got) => normalizeStrict(got) == normalizeStrict(in) }
      })
    assert(res.passed, res.status.toString)
  }

  test("property: round-trip is idempotent even with nulls and empties") {
    val leafGen: Gen[JValue] = Gen.oneOf(
      Gen.const(JNull), Gen.choose(-9L, 9L).map(JLong(_)), Gen.const(JString("s")))
    def valueGen(depth: Int): Gen[JValue] =
      if (depth == 0) leafGen
      else Gen.frequency(
        3 -> leafGen,
        2 -> Gen.listOf(Gen.lzy(valueGen(depth - 1))).map(xs => JArray(xs.take(3).toVector)),
        2 -> Gen.someOf(Seq("a", "b")).flatMap { ks =>
          Gen.sequence[Vector[JValue], JValue](ks.map(_ => valueGen(depth - 1))).map { vs =>
            JObject(ks.toVector.zip(vs))
          }
        })
    val recsGen = Gen.nonEmptyListOf(
      valueGen(3).map { case o: JObject => o; case v => JObject.of("w" -> v) }).map(_.take(15))
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(40),
      Prop.forAll(recsGen) { recs =>
        val (schema, once) = through(recs)
        val twice = stripeAndAssemble(schema, once)
        once.zip(twice).forall { case (a, b) => normalize(a) == normalize(b) }
      })
    assert(res.passed, res.status.toString)
  }

  /** Every token each column receives, in order: ('e', def, value) for an
    * entry, ('d', index, null) for a delimiter.
    */
  private final class TokenLog(numColumns: Int) extends ColumnSink {
    private val cols = Array.fill(numColumns)(Vector.newBuilder[(Char, Int, JValue)])
    def entry(col: Int, defLevel: Int, value: JValue): Unit = cols(col) += (('e', defLevel, value))
    def delimiter(col: Int, d: Int): Unit = cols(col) += (('d', d, null))
    def streams: Seq[Vector[(Char, Int, JValue)]] = cols.toSeq.map(_.result())
  }

  test("duplicate names and null fields stripe as the schema-driven walk does (first occurrence wins)") {
    val recs = objs(
      """{"a": null, "a": 1, "b": {"c": 2}, "b": "x"}""",
      """{"a": 3, "a": null, "b": "y", "b": {"c": 4}, "z": null}""",
      """{"b": {"c": null, "c": 5}, "b": null, "a": [1, null, [2]], "a": 6}""")
    val schema = new Schema
    recs.foreach(schema.observe)
    val got = new TokenLog(schema.numColumns)
    val want = new TokenLog(schema.numColumns)
    val striper = new Striper(schema)
    val reference = new SchemaDrivenStriper(schema)
    recs.foreach { r => striper.stripe(r, got); reference.stripe(r, want) }
    assert(got.streams == want.streams)
  }

  test("property: record-driven striping emits the schema-driven walk's token streams") {
    val leafGen: Gen[JValue] = Gen.frequency(
      2 -> Gen.const(JNull),
      3 -> Gen.choose(-5L, 5L).map(JLong(_)),
      2 -> Gen.oneOf("x", "y").map(JString(_)),
      1 -> Gen.choose(-1.0, 1.0).map(JDouble(_)),
      1 -> Gen.oneOf(true, false).map(JBool(_)))
    // Arrays are empty, nested, or hold null elements; the same name takes
    // different kinds across records, so unions (object alternatives
    // included) form at fields and at array elements.
    def valueGen(depth: Int): Gen[JValue] =
      if (depth == 0) leafGen
      else Gen.frequency(
        4 -> leafGen,
        2 -> Gen.choose(0, 3).flatMap(Gen.listOfN(_, Gen.lzy(valueGen(depth - 1)))).map(xs => JArray(xs.toVector)),
        2 -> objGen(depth - 1))
    // Names are drawn with replacement from three, so duplicates are common.
    def objGen(depth: Int): Gen[JObject] =
      Gen.choose(0, 4).flatMap(Gen.listOfN(_, Gen.zip(Gen.oneOf("a", "b", "c"), Gen.lzy(valueGen(depth)))))
        .map(fs => JObject(fs.toVector))
    // Wide sparse records: a few of eighty rarely present fields, some null
    // in every record that carries them (no schema child at all).
    val sparse = (0 until 80).map(i => s"s$i")
    val recordGen: Gen[JObject] = for {
      o <- objGen(3)
      k <- Gen.choose(0, 6)
      extra <- Gen.listOfN(k, Gen.zip(Gen.oneOf(sparse), leafGen))
    } yield JObject(o.fields ++ extra)
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200),
      Prop.forAll(Gen.nonEmptyListOf(recordGen).map(_.take(20))) { recs =>
        val schema = new Schema
        recs.foreach(schema.observe)
        val got = new TokenLog(schema.numColumns)
        val want = new TokenLog(schema.numColumns)
        val striper = new Striper(schema)
        val reference = new SchemaDrivenStriper(schema)
        recs.foreach { r => striper.stripe(r, got); reference.stripe(r, want) }
        got.streams == want.streams
      })
    assert(res.passed, res.status.toString)
  }
}
