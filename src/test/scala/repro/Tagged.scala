package repro

import repro.core._

/** A rendering of values that keeps their kind: unlike [[JValue.render]]
  * it tells a long from a double, NaN and ±Infinity from NULL, and -0.0
  * from 0.0, so tests can compare results that must agree bit for bit.
  */
object Tagged {
  def apply(v: JValue): String = v match {
    case JNull       => "null"
    case JBool(b)    => s"bool $b"
    case JLong(l)    => s"long $l"
    case JDouble(d)  => s"double $d"
    case JString(s)  => JString(s).render
    case JArray(xs)  => xs.map(apply).mkString("[", ", ", "]")
    case JObject(fs) => fs.map { case (k, x) => s"${JString(k).render}: ${apply(x)}" }.mkString("{", ", ", "}")
  }

  /** One result row. */
  def row(r: Array[JValue]): String = r.map(apply).mkString(" | ")
}
