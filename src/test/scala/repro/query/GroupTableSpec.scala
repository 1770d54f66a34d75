package repro.query

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.collection.mutable

/** The GROUP BY table shared by both engines, fed rows directly and compared
  * with [[ReferenceGroups]].
  */
class GroupTableSpec extends AnyFunSuite {

  private val big = 1L << 53
  private val scalars: Vector[JValue] = Vector(JNull, JBool(true), JBool(false),
    JLong(0), JLong(1), JLong(-7), JLong(big), JLong(big + 1), JLong(Long.MaxValue),
    JDouble(0.0), JDouble(-0.0), JDouble(1.0), JDouble(2.5), JDouble(big.toDouble),
    JDouble(Double.NaN), JDouble(java.lang.Double.longBitsToDouble(0x7ff8000000000001L)),
    JDouble(Double.PositiveInfinity), JString("a"), JString("b"), JString(""))

  private def randomValue(r: scala.util.Random, wide: Boolean): JValue = r.nextInt(12) match {
    case 0 => JArray(Vector.fill(r.nextInt(3))(scalars(r.nextInt(scalars.length))))
    case 1 if wide => JLong(r.nextInt(3000).toLong) // enough distinct keys to grow the table
    case _ => scalars(r.nextInt(scalars.length))
  }

  /** Type-tagged rendering that tells 1 from 1.0, -0.0 from 0.0 and NaN from NULL. */
  private def show(v: JValue): String = v match {
    case JDouble(d) => s"d:$d"
    case JLong(l)   => s"l:$l"
    case JArray(xs) => xs.map(show).mkString("[", ",", "]")
    case other      => other.render
  }

  private def rows(it: Iterator[Array[JValue]]): Seq[String] = it.map(_.map(show).mkString("|")).toSeq

  private val aggs = Seq("count", "max", "min", "max", "count")

  for (numKeys <- 0 to 2) {
    test(s"$numKeys key(s): same groups, first-seen order and aggregates as the reference on random rows") {
      for (seed <- 1 to 20) {
        val r = new scala.util.Random(seed)
        val table = new GroupTable(numKeys, aggs)
        val reference = new ReferenceGroups(numKeys, aggs)
        val wide = seed % 2 == 0
        for (_ <- 0 until 4000) {
          val keys = Array.fill(numKeys)(randomValue(r, wide))
          val vals = Array.fill(aggs.length)(randomValue(r, wide = false))
          table.update(keys.clone(), vals)
          reference.update(keys.toVector, vals)
        }
        assert(rows(table.rows) == rows(reference.rows), s"seed $seed")
      }
    }
  }

  test("multi-key lookups copy the probe array, so a caller may reuse it") {
    val table = new GroupTable(2, Seq("count"))
    val probe = new Array[JValue](2)
    for ((a, b) <- Seq(JLong(1) -> JString("x"), JLong(2) -> JString("y"), JLong(1) -> JString("x"))) {
      probe(0) = a; probe(1) = b
      table.accumulate(0, table.groupOf(probe), JNull)
    }
    assert(rows(table.rows) == Seq("l:1|\"x\"|l:2", "l:2|\"y\"|l:1"))
  }

  test("a global aggregate over empty input gives one row: COUNT 0, MAX/MIN NULL") {
    assert(rows(new GroupTable(0, aggs).rows) == Seq("l:0|null|null|null|l:0"))
    assert(rows(new GroupTable(1, aggs).rows).isEmpty)
  }

  test("key equality: NaN equals NaN at any depth, -0.0 equals 0.0, 1 differs from 1.0") {
    val nan2 = JDouble(java.lang.Double.longBitsToDouble(0x7ff8000000000001L))
    assert(GroupTable.keyEquals(JDouble(Double.NaN), nan2))
    assert(GroupTable.keyEquals(JArray.of(JDouble(Double.NaN)), JArray.of(nan2)))
    assert(GroupTable.keyEquals(JObject.of("x" -> JDouble(Double.NaN)), JObject.of("x" -> nan2)))
    assert(GroupTable.keyEquals(JDouble(-0.0), JDouble(0.0)))
    assert(!GroupTable.keyEquals(JLong(1), JDouble(1.0)))
    assert(!GroupTable.keyEquals(JObject.of("x" -> JLong(1)), JObject.of("y" -> JLong(1))))
    assert(!GroupTable.keyEquals(JLong(big), JLong(big + 1)))
  }
}

/** The group table both engines used before the shared hash table: a
  * `LinkedHashMap` keyed by the key `Vector`, with MAX/MIN folded through
  * [[Expr.compare]]. The one change is NaN: a NaN key part is replaced by a
  * marker (at any depth), so NaN keys form one group.
  */
private final class ReferenceGroups(numKeys: Int, kinds: Seq[String]) {
  private object NaNKey
  private val table = mutable.LinkedHashMap.empty[Vector[Any], (Vector[JValue], Array[JValue])]

  private def canon(v: JValue): Any = v match {
    case JDouble(d) if d.isNaN => NaNKey
    case JArray(xs)            => ("array", xs.map(canon))
    case JObject(fs)           => ("object", fs.map { case (n, x) => (n, canon(x)) })
    case other                 => other
  }

  def update(key: Vector[JValue], vals: Array[JValue]): Unit = {
    val (_, acc) = table.getOrElseUpdate(key.map(canon),
      (key, kinds.map(k => if (k == "count") JLong(0): JValue else JNull).toArray))
    for (i <- kinds.indices) kinds(i) match {
      case "count" =>
        acc(i) = JLong(acc(i).asInstanceOf[JLong].v + 1)
      case "max" =>
        if (vals(i) != JNull && (acc(i) == JNull || Expr.truthy(Expr.compare(">", vals(i), acc(i)))))
          acc(i) = vals(i)
      case "min" =>
        if (vals(i) != JNull && (acc(i) == JNull || Expr.truthy(Expr.compare("<", vals(i), acc(i)))))
          acc(i) = vals(i)
    }
  }

  def rows: Iterator[Array[JValue]] =
    if (numKeys == 0 && table.isEmpty)
      Iterator.single(kinds.map(k => if (k == "count") JLong(0): JValue else JNull).toArray)
    else table.valuesIterator.map { case (k, acc) => (k ++ acc).toArray }
}
