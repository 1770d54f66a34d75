package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.datasets.Datasets
import repro.query.QueryResult

/** Each answer check must reject a perturbed answer: a dropped key, a
  * changed aggregate, a wrong top-k value. Run with `sbt test` in this
  * directory.
  */
class ChecksSpec extends AnyFunSuite {
  private def result(rows: Seq[JValue]*): QueryResult = QueryResult(Seq("k", "v"), rows.map(_.toArray))

  private val groups: Map[JValue, JValue] =
    (1 to 15).map(i => (JString(s"g$i"): JValue) -> (JLong(i.toLong * 10): JValue)).toMap
  private val top = TopK(groups, k = 3)
  private def row(g: Int, v: Long): Seq[JValue] = Seq(JString(s"g$g"), JLong(v))

  test("a correct top-k answer passes, with any tie-break") {
    assert(Checks.answer(result(row(15, 150), row(14, 140), row(13, 130)), top) == Ok)
    val tied = TopK(groups + (JString("g12") -> JLong(130)), k = 3)
    assert(Checks.answer(result(row(15, 150), row(14, 140), row(12, 130)), tied) == Ok)
    assert(Checks.answer(result(row(15, 150), row(14, 140), row(13, 130)), tied) == Ok)
  }

  test("a wrong top-k value is rejected") {
    assert(Checks.answer(result(row(15, 150), row(14, 140), row(12, 120)), top).isInstanceOf[Wrong])
  }

  test("a changed aggregate is rejected, for top-k rows and for a single row") {
    assert(Checks.answer(result(row(15, 150), row(14, 141), row(13, 130)), top).isInstanceOf[Wrong])
    assert(Checks.answer(result(row(15, 150), row(13, 140), row(14, 130)), top).isInstanceOf[Wrong])
    val one = OneRow(Seq(JLong(42), JDouble(1.5)))
    assert(Checks.answer(QueryResult(Seq("a", "b"), Seq(Array(JLong(42), JDouble(1.5)))), one) == Ok)
    assert(Checks.answer(QueryResult(Seq("a", "b"), Seq(Array(JLong(43), JDouble(1.5)))), one).isInstanceOf[Wrong])
    assert(Checks.answer(QueryResult(Seq("a", "b"), Seq(Array(JLong(42), JDouble(1.5001)))), one).isInstanceOf[Wrong])
  }

  test("doubles compare within a tolerance") {
    val one = OneRow(Seq(JDouble(0.1 + 0.2)))
    assert(Checks.answer(QueryResult(Seq("a"), Seq(Array(JDouble(0.3)))), one) == Ok)
  }

  test("an empty global aggregate is a known fault only where the right answer is zero") {
    val empty = QueryResult(Seq("cnt"), Nil)
    assert(Checks.answer(empty, OneRow(Seq(JLong(0)), emptyInput = true)).isInstanceOf[KnownFault])
    assert(Checks.answer(empty, OneRow(Seq(JLong(7)))).isInstanceOf[Wrong])
    assert(Checks.answer(QueryResult(Seq("cnt"), Seq(Array(JLong(0)))), OneRow(Seq(JLong(0)), emptyInput = true)) == Ok)
    assert(Checks.answer(QueryResult(Seq("cnt"), Seq(Array(JLong(3)))), OneRow(Seq(JLong(0)), emptyInput = true))
      .isInstanceOf[Wrong])
  }

  test("a dropped key is rejected by the key and record checks") {
    assert(Checks.sameKeys(Array(1L, 2L, 3L), Array(1L, 2L, 3L)).isEmpty)
    assert(Checks.sameKeys(Array(1L, 3L), Array(1L, 2L, 3L)).nonEmpty)
    val recs = Datasets.tweet2(5, seed = 1).map(r => Reference.field(r, "id").asInstanceOf[JLong].v -> r).toSeq
    val fields = LookupCold.Fields
    assert(Checks.sameRecords(recs, recs, fields).isEmpty)
    assert(Checks.sameRecords(recs.patch(2, Nil, 1), recs, fields).nonEmpty)
    val changed = recs.updated(1, recs(1)._1 -> JObject(recs(1)._2.fields.map {
      case ("retweet_count", JLong(c)) => "retweet_count" -> JLong(c + 1)
      case kv => kv
    }))
    assert(Checks.sameRecords(changed, recs, fields).nonEmpty)
    assert(Checks.digest(recs.iterator, fields) != Checks.digest(recs.patch(2, Nil, 1).iterator, fields))
  }

  test("the scan references match hand-computed answers on a small input") {
    val cell = Seq(
      JObject.of("id" -> JLong(0), "caller" -> JString("a"), "duration" -> JLong(700)),
      JObject.of("id" -> JLong(1), "caller" -> JString("b"), "duration" -> JLong(100)),
      JObject.of("id" -> JLong(2), "caller" -> JString("a"), "duration" -> JLong(900)))
    val ans = Reference.scanAnswers("cell", cell.iterator, 0L)
    assert(ans("Q1") == OneRow(Seq(JLong(3))))
    assert(ans("Q3") == OneRow(Seq(JLong(2))))
    assert(ans("Qempty") == OneRow(Seq(JLong(0)), emptyInput = true))
    assert(ans("Q2") == TopK(Map(JString("a") -> JLong(900), JString("b") -> JLong(100))))
  }
}
