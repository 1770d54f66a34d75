package repro.core

import scala.collection.mutable

/** Schemaless document model — the ADM/JSON value space the paper's
  * document store ingests. Field order inside objects is preserved
  * (insertion order), matching how document stores store records.
  */
sealed trait JValue {
  /** Compact JSON rendering (stable field order) for Spark/DuckDB harnesses. */
  def render: String = { val sb = new StringBuilder; Json.write(this, sb); sb.toString }
}
case object JNull extends JValue
final case class JBool(v: Boolean) extends JValue
final case class JLong(v: Long) extends JValue
final case class JDouble(v: Double) extends JValue
final case class JString(v: String) extends JValue
final case class JArray(items: Vector[JValue]) extends JValue
final case class JObject(fields: Vector[(String, JValue)]) extends JValue {
  /** The first field named `name`: of duplicate names the first wins. */
  def get(name: String): Option[JValue] = {
    var i = 0
    val n = fields.length
    while (i < n) {
      val f = fields(i)
      if (f._1 == name) return Some(f._2)
      i += 1
    }
    None
  }
}

object JObject { def of(fs: (String, JValue)*): JObject = JObject(fs.toVector) }
object JArray { def of(vs: JValue*): JArray = JArray(vs.toVector) }

object Json {
  /** A vector of the first `n` slots of `a`, which the caller fills and
    * then no longer writes: up to 32 slots become the vector's own array
    * without a copy (the decoders know their element counts up front).
    */
  private[repro] def vectorOf[A](a: Array[AnyRef], n: Int): Vector[A] =
    Vector.from(scala.collection.immutable.ArraySeq.unsafeWrapArray(
      if (n == a.length) a else java.util.Arrays.copyOf(a, n))).asInstanceOf[Vector[A]]

  private[core] def write(v: JValue, sb: StringBuilder): Unit = v match {
    case JNull       => sb.append("null")
    case JBool(b)    => sb.append(b)
    case JLong(l)    => sb.append(l)
    case JDouble(d)  =>
      if (d.isNaN || d.isInfinite) sb.append("null")
      else if (d == math.floor(d) && math.abs(d) < 1e15) { sb.append(d.toLong); sb.append(".0") }
      else sb.append(d)
    case JString(s)  => writeEscaped(s, sb)
    case JArray(xs)  =>
      sb.append('[')
      var first = true
      xs.foreach { x => if (!first) sb.append(','); first = false; write(x, sb) }
      sb.append(']')
    case JObject(fs) =>
      sb.append('{')
      var first = true
      fs.foreach { case (k, x) =>
        if (!first) sb.append(','); first = false
        writeEscaped(k, sb); sb.append(':'); write(x, sb)
      }
      sb.append('}')
  }

  private def writeEscaped(s: String, sb: StringBuilder): Unit = {
    sb.append('"')
    var i = 0
    while (i < s.length) {
      s.charAt(i) match {
        case '"'  => sb.append("\\\"")
        case '\\' => sb.append("\\\\")
        case '\n' => sb.append("\\n")
        case '\r' => sb.append("\\r")
        case '\t' => sb.append("\\t")
        case c if c < 0x20 => sb.append(f"\\u${c.toInt}%04x")
        case c    => sb.append(c)
      }
      i += 1
    }
    sb.append('"')
  }

  /** Minimal recursive-descent JSON parser (tests / round-trips only). */
  def parse(s: String): JValue = {
    val p = new Parser(s)
    val v = p.parseValue()
    p.skipWs()
    require(p.eof, s"trailing input at ${p.pos}")
    v
  }

  private final class Parser(s: String) {
    var pos = 0
    def eof: Boolean = pos >= s.length
    def skipWs(): Unit = while (!eof && s.charAt(pos).isWhitespace) pos += 1
    private def expect(c: Char): Unit = {
      skipWs(); require(!eof && s.charAt(pos) == c, s"expected '$c' at $pos"); pos += 1
    }
    def parseValue(): JValue = {
      skipWs()
      s.charAt(pos) match {
        case '{' => parseObject()
        case '[' => parseArray()
        case '"' => JString(parseString())
        case 't' => pos += 4; JBool(true)
        case 'f' => pos += 5; JBool(false)
        case 'n' => pos += 4; JNull
        case _   => parseNumber()
      }
    }
    private def parseObject(): JObject = {
      expect('{'); skipWs()
      val fs = mutable.ArrayBuffer.empty[(String, JValue)]
      if (s.charAt(pos) == '}') { pos += 1; return JObject(fs.toVector) }
      var done = false
      while (!done) {
        skipWs()
        val k = parseString()
        expect(':')
        fs += ((k, parseValue()))
        skipWs()
        if (s.charAt(pos) == ',') pos += 1 else { expect('}'); done = true }
      }
      JObject(fs.toVector)
    }
    private def parseArray(): JArray = {
      expect('['); skipWs()
      val xs = mutable.ArrayBuffer.empty[JValue]
      if (s.charAt(pos) == ']') { pos += 1; return JArray(xs.toVector) }
      var done = false
      while (!done) {
        xs += parseValue()
        skipWs()
        if (s.charAt(pos) == ',') pos += 1 else { expect(']'); done = true }
      }
      JArray(xs.toVector)
    }
    private def parseString(): String = {
      expect('"')
      val sb = new StringBuilder
      while (s.charAt(pos) != '"') {
        val c = s.charAt(pos)
        if (c == '\\') {
          pos += 1
          s.charAt(pos) match {
            case '"'  => sb.append('"')
            case '\\' => sb.append('\\')
            case '/'  => sb.append('/')
            case 'n'  => sb.append('\n')
            case 'r'  => sb.append('\r')
            case 't'  => sb.append('\t')
            case 'b'  => sb.append('\b')
            case 'f'  => sb.append('\f')
            case 'u'  =>
              sb.append(Integer.parseInt(s.substring(pos + 1, pos + 5), 16).toChar); pos += 4
            case other => sys.error(s"bad escape \\$other")
          }
        } else sb.append(c)
        pos += 1
      }
      pos += 1
      sb.toString
    }
    private def parseNumber(): JValue = {
      val start = pos
      while (!eof && "+-0123456789.eE".indexOf(s.charAt(pos)) >= 0) pos += 1
      val tok = s.substring(start, pos)
      if (tok.exists(c => c == '.' || c == 'e' || c == 'E')) JDouble(tok.toDouble)
      else JLong(tok.toLong)
    }
  }
}
