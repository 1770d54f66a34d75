package repro.perfbench

import repro.core._
import repro.query.QueryResult
import scala.collection.mutable

/** Expected answer of one query, computed by a plain-Scala fold over the
  * generator output: nothing here goes through `repro.query` or `repro.lsm`.
  */
sealed trait Expected
/** One row holding these values. `emptyInput` marks a global aggregate over
  * no qualifying input, whose correct answer is a row of zeros.
  */
final case class OneRow(values: Seq[JValue], emptyInput: Boolean = false) extends Expected
/** ORDER BY <aggregate> DESC LIMIT k over `groups` (group key → aggregate). */
final case class TopK(groups: Map[JValue, JValue], k: Int = 10) extends Expected

/** Outcome of checking one answer. */
sealed trait Outcome
case object Ok extends Outcome
/** The answer hits a known, named program fault (counted as a failed operation). */
final case class KnownFault(msg: String) extends Outcome
final case class Wrong(msg: String) extends Outcome

object Reference {

  def field(v: JValue, path: String*): JValue =
    path.foldLeft(v) {
      case (o: JObject, f) => o.get(f).getOrElse(JNull)
      case _               => JNull
    }

  private def long(v: JValue): Long = v match { case JLong(x) => x; case other => sys.error(s"not a long: $other") }
  private def dbl(v: JValue): Double = v match { case JDouble(x) => x; case other => sys.error(s"not a double: $other") }
  private def arr(v: JValue): Vector[JValue] = v match { case JArray(xs) => xs; case _ => Vector.empty }

  private final class Counter { val m = mutable.HashMap.empty[JValue, Long]; def add(k: JValue): Unit = m(k) = m.getOrElse(k, 0L) + 1 }
  private def counts(c: Counter): Map[JValue, JValue] = c.m.map { case (k, v) => k -> (JLong(v): JValue) }.toMap

  private def maxLong(m: mutable.HashMap[JValue, Long], k: JValue, v: Long): Unit =
    m(k) = math.max(m.getOrElse(k, Long.MinValue), v)
  private def maxDouble(m: mutable.HashMap[JValue, Double], k: JValue, v: Double): Unit =
    m(k) = math.max(m.getOrElse(k, Double.NegativeInfinity), v)

  /** Query name → expected answer for `dataset` over its generated records.
    * Names match [[ScanWarm]]'s query list.
    */
  def scanAnswers(dataset: String, records: Iterator[JObject], sensorsDay: Long): Map[String, Expected] =
    dataset match {
      case "cell" =>
        var n = 0L; var q3 = 0L; var q4 = 0L
        val q2 = mutable.HashMap.empty[JValue, Long]
        records.foreach { r =>
          n += 1
          val d = long(field(r, "duration"))
          if (d >= 600) q3 += 1
          if (d >= 1200) q4 += 1
          maxLong(q2, field(r, "caller"), d)
        }
        Map("Q1" -> OneRow(Seq(JLong(n))),
            "Q2" -> TopK(q2.map { case (k, v) => k -> (JLong(v): JValue) }.toMap),
            "Q3" -> OneRow(Seq(JLong(q3))),
            "Qempty" -> OneRow(Seq(JLong(q4)), emptyInput = q4 == 0))

      case "sensors" =>
        var nRead = 0L
        var mx = Double.NegativeInfinity; var mn = Double.PositiveInfinity
        val q3 = mutable.HashMap.empty[JValue, Double]
        val q4 = mutable.HashMap.empty[JValue, Double]
        val dayEnd = sensorsDay + 24L * 60 * 60 * 1000
        records.foreach { r =>
          val sid = field(r, "sensor_id")
          val t = long(field(r, "report_time"))
          val inDay = t > sensorsDay && t < dayEnd
          arr(field(r, "readings")).foreach { x =>
            val temp = dbl(field(x, "temp"))
            nRead += 1
            mx = math.max(mx, temp); mn = math.min(mn, temp)
            maxDouble(q3, sid, temp)
            if (inDay) maxDouble(q4, sid, temp)
          }
        }
        def asJ(m: mutable.HashMap[JValue, Double]) = m.map { case (k, v) => k -> (JDouble(v): JValue) }.toMap
        Map("Q1" -> OneRow(Seq(JLong(nRead))),
            "Q2" -> OneRow(Seq(JDouble(mx), JDouble(mn))),
            "Q3" -> TopK(asJ(q3)),
            "Q4" -> TopK(asJ(q4)))

      case "tweet_1" =>
        var n = 0L
        val q2 = mutable.HashMap.empty[JValue, Long]
        val q3 = new Counter
        records.foreach { r =>
          n += 1
          val user = field(r, "users", "name")
          field(r, "text") match { case JString(s) => maxLong(q2, user, s.length.toLong); case _ => () }
          val jobs = arr(field(r, "entities", "hashtags")).exists { h =>
            field(h, "text") match { case JString(s) => s.toLowerCase == "jobs"; case _ => false }
          }
          if (jobs) q3.add(user)
        }
        Map("Q1" -> OneRow(Seq(JLong(n))),
            "Q2" -> TopK(q2.map { case (k, v) => k -> (JLong(v): JValue) }.toMap),
            "Q3" -> TopK(counts(q3)))

      case "wos" =>
        var n = 0L
        val q2, q3, q4 = new Counter
        records.foreach { r =>
          n += 1
          val meta = field(r, "static_data", "fullrecord_metadata")
          arr(field(meta, "category_info", "subjects", "subject")).foreach { s =>
            if (field(s, "ascatype") == JString("extended")) q2.add(field(s, "value"))
          }
          field(meta, "addresses", "address_name") match {
            case JArray(addrs) =>
              val countries = addrs.map(a => field(a, "address_spec", "country")).distinct
              if (countries.length > 1) {
                if (countries.contains(JString("USA")))
                  countries.filter(_ != JString("USA")).foreach(q3.add)
                val names = countries.collect { case JString(s) => s }.distinct.sorted
                for (i <- names.indices; j <- i + 1 until names.length)
                  q4.add(JString(names(i) + "|" + names(j)))
              }
            case _ => ()
          }
        }
        Map("Q1" -> OneRow(Seq(JLong(n))),
            "Q2" -> TopK(counts(q2)), "Q3" -> TopK(counts(q3)), "Q4" -> TopK(counts(q4)))
    }
}

/** Checks of the program's answers against the references. Each returns a
  * description of the first disagreement, or `None`/[[Ok]].
  */
object Checks {
  private def num(v: JValue): Option[Double] = v match {
    case JLong(x)   => Some(x.toDouble)
    case JDouble(x) => Some(x)
    case _          => None
  }

  /** Equal values; doubles within a relative tolerance of 1e-9. */
  def sameValue(a: JValue, b: JValue): Boolean = (a, b) match {
    case (JLong(x), JLong(y)) => x == y
    case (JDouble(_), _) | (_, JDouble(_)) =>
      (num(a), num(b)) match {
        case (Some(x), Some(y)) => x == y || math.abs(x - y) <= 1e-9 * math.max(math.abs(x), math.abs(y))
        case _                  => false
      }
    case _ => a == b
  }

  private def greater(a: JValue, b: JValue): Boolean = (a, b) match {
    case (JLong(x), JLong(y)) => x > y
    case _                    => num(a).get > num(b).get
  }

  def answer(r: QueryResult, want: Expected): Outcome = want match {
    case OneRow(values, emptyInput) =>
      if (emptyInput && r.rows.isEmpty)
        KnownFault("global aggregate over empty input returned no row")
      else if (r.rows.length != 1) Wrong(s"expected one row, got ${r.rows.length}")
      else {
        val row = r.rows.head
        if (row.length == values.length && row.zip(values).forall { case (a, b) => sameValue(a, b) }) Ok
        else Wrong(s"got ${row.map(_.render).mkString(",")}, want ${values.map(_.render).mkString(",")}")
      }

    case TopK(groups, k) =>
      val top = groups.values.toVector.sortWith(greater).take(k)
      val got = r.rows.map(row => row(row.length - 1)).toVector
      if (r.rows.length != top.length) Wrong(s"expected ${top.length} rows, got ${r.rows.length}")
      else if (got.zip(got.drop(1)).exists { case (a, b) => greater(b, a) })
        Wrong(s"rows not in descending order: ${got.map(_.render).mkString(",")}")
      else if (!got.zip(top).forall { case (a, b) => sameValue(a, b) })
        Wrong(s"top values ${got.map(_.render).mkString(",")}, want ${top.map(_.render).mkString(",")}")
      else {
        val keys = r.rows.map(_.head)
        val bad = r.rows.find(row => !groups.get(row.head).exists(sameValue(_, row.last)))
        if (keys.distinct.length != keys.length) Wrong("a group appears twice")
        else bad.fold[Outcome](Ok)(row =>
          Wrong(s"group ${row.head.render} has ${row.last.render}, want ${groups.get(row.head).map(_.render)}"))
      }
  }

  /** Sorted key arrays equal. */
  def sameKeys(got: Array[Long], want: Array[Long]): Option[String] =
    if (java.util.Arrays.equals(got, want)) None
    else {
      val g = got.toSet; val w = want.toSet
      Some(s"${got.length} keys, want ${want.length}; missing ${(w -- g).take(3).mkString(",")}" +
        s" extra ${(g -- w).take(3).mkString(",")}")
    }

  /** Same keys in the same order, and the selected fields of each record equal. */
  def sameRecords(got: Seq[(Long, JObject)], want: Seq[(Long, JObject)],
                  fields: Seq[Seq[String]]): Option[String] =
    sameKeys(got.map(_._1).toArray, want.map(_._1).toArray).orElse {
      got.zip(want).iterator.flatMap { case ((k, g), (_, w)) =>
        fields.find(f => !sameValue(Reference.field(g, f: _*), Reference.field(w, f: _*))).map { f =>
          s"key $k field ${f.mkString(".")}: ${Reference.field(g, f: _*).render} vs ${Reference.field(w, f: _*).render}"
        }
      }.nextOption()
    }

  /** Order-sensitive digest of keys and the selected fields. */
  def digest(recs: Iterator[(Long, JObject)], fields: Seq[Seq[String]]): (Long, Int) = {
    var h = 17L
    var n = 0
    recs.foreach { case (k, r) =>
      h = h * 31 + k
      fields.foreach(f => h = h * 31 + Reference.field(r, f: _*).render.hashCode)
      n += 1
    }
    (h, n)
  }
}
