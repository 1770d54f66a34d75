package repro.query

import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** The ORDER BY … LIMIT finish shared by both engines, on rows given directly. */
class FinishSpec extends AnyFunSuite {

  private val cols = Seq("k", "v")

  private def finish(desc: Boolean, limit: Option[Int], rows: Seq[(JValue, JValue)]): Seq[(JValue, JValue)] =
    Engine.finish(PlanSpec(Nil, orderBy = Some(("v", desc)), limit = limit), cols,
      rows.iterator.map { case (k, v) => Array(k, v) }).rows.map(r => (r(0), r(1)))

  private def s(x: String): JValue = JString(x)
  private def l(x: Long): JValue = JLong(x)

  test("ties across the LIMIT boundary are broken by the columns, whatever the arrival order") {
    val rows = Seq(s("c") -> l(5), s("d") -> l(7), s("a") -> l(5), s("e") -> l(3), s("b") -> l(5))
    for (perm <- rows.permutations)
      assert(finish(desc = true, Some(3), perm) == Seq(s("d") -> l(7), s("a") -> l(5), s("b") -> l(5)), perm)
  }

  test("NULL ordering values come last under DESC and first under ASC") {
    val rows = Seq(s("a") -> JNull, s("b") -> l(1), s("c") -> JNull, s("d") -> l(2), s("e") -> JNull)
    for (perm <- rows.permutations) {
      assert(finish(desc = true, Some(3), perm) == Seq(s("d") -> l(2), s("b") -> l(1), s("a") -> JNull))
      assert(finish(desc = false, Some(2), perm) == Seq(s("a") -> JNull, s("c") -> JNull))
    }
  }

  test("ASC order") {
    val rows = Seq(s("a") -> l(3), s("b") -> l(-1), s("c") -> l(2), s("d") -> l(10))
    assert(finish(desc = false, Some(2), rows) == Seq(s("b") -> l(-1), s("c") -> l(2)))
    assert(finish(desc = false, None, rows) ==
      Seq(s("b") -> l(-1), s("c") -> l(2), s("a") -> l(3), s("d") -> l(10)))
  }

  test("LIMIT 0 yields no row; a LIMIT above the row count yields every row, sorted") {
    val rows = Seq(s("a") -> l(1), s("b") -> l(2))
    assert(finish(desc = true, Some(0), rows).isEmpty)
    assert(finish(desc = true, Some(5), rows) == Seq(s("b") -> l(2), s("a") -> l(1)))
    assert(finish(desc = true, Some(5), Nil).isEmpty)
  }

  test("longs above 2^53 that a Double cannot tell apart keep their order") {
    val big = 1L << 53
    val rows = Seq(s("a") -> l(big), s("b") -> l(big + 2), s("c") -> l(big + 1))
    assert(finish(desc = true, Some(2), rows) == Seq(s("b") -> l(big + 2), s("c") -> l(big + 1)))
    assert(finish(desc = false, Some(2), rows) == Seq(s("a") -> l(big), s("c") -> l(big + 1)))
  }
}
