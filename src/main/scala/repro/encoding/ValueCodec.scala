package repro.encoding

import java.nio.charset.StandardCharsets

/** Atomic value types of the document model's leaves.
  *
  * Heterogeneous fields become unions of these (plus object/array
  * alternatives) in the inferred schema (§3.2.2).
  */
sealed abstract class AtomicType(val name: String)
object AtomicType {
  case object TLong   extends AtomicType("long")
  case object TDouble extends AtomicType("double")
  case object TString extends AtomicType("string")
  case object TBool   extends AtomicType("boolean")
  case object TNull   extends AtomicType("null")
  val all: Seq[AtomicType] = Seq(TLong, TDouble, TString, TBool, TNull)
  def byName(n: String): AtomicType = all.find(_.name == n).getOrElse(sys.error(s"no atomic type $n"))
}

/** Streaming encoder for one column's *present* values (NULLs live only in
  * the def levels). One implementation per [[AtomicType]], mirroring the
  * Parquet encodings the paper uses (§4.1): delta ints, delta strings,
  * plain doubles, bit-packed booleans.
  */
trait ValueWriter {
  def writeLong(v: Long): Unit = sys.error("type mismatch")
  def writeDouble(v: Double): Unit = sys.error("type mismatch")
  def writeString(v: String): Unit = sys.error("type mismatch")
  def writeBool(v: Boolean): Unit = sys.error("type mismatch")
  /** Current encoded size in bytes (page-budget checks while buffering, §4.5.1). */
  def sizeEstimate: Int
  def count: Int
  def finish(): Array[Byte]
}

/** Streaming decoder; `skip(n)` decodes but does not materialize (§4.4). */
trait ValueReader {
  def nextLong(): Long = sys.error("type mismatch")
  def nextDouble(): Double = sys.error("type mismatch")
  def nextString(): String = sys.error("type mismatch")
  def nextBool(): Boolean = sys.error("type mismatch")
  def skip(n: Int): Unit
}

object ValueCodec {
  def writer(t: AtomicType): ValueWriter = t match {
    case AtomicType.TLong   => new DeltaLongWriter
    case AtomicType.TDouble => new PlainDoubleWriter
    case AtomicType.TString => new DeltaStringWriter
    case AtomicType.TBool   => new BitBoolWriter
    case AtomicType.TNull   => new NullWriter
  }
  def reader(t: AtomicType, bytes: Array[Byte], start: Int, end: Int): ValueReader = t match {
    case AtomicType.TLong   => new DeltaLongReader(bytes, start, end)
    case AtomicType.TDouble => new PlainDoubleReader(bytes, start, end)
    case AtomicType.TString => new DeltaStringReader(bytes, start, end)
    case AtomicType.TBool   => new BitBoolReader(bytes, start, end)
    case AtomicType.TNull   => new NullReader
  }
}

/** Delta + zigzag varint; monotone keys (PKs, timestamps) collapse to ~1 B/value. */
final class DeltaLongWriter extends ValueWriter {
  private val out = new BufWriter(64)
  private var prev = 0L
  private var n = 0
  override def writeLong(v: Long): Unit = { out.writeZigZag(v - prev); prev = v; n += 1 }
  def sizeEstimate: Int = out.size
  def count: Int = n
  def finish(): Array[Byte] = out.toArray
}
final class DeltaLongReader(bytes: Array[Byte], start: Int, end: Int) extends ValueReader {
  private val in = new BufReader(bytes, start, end)
  private var prev = 0L
  override def nextLong(): Long = { prev += in.readZigZag(); prev }
  def skip(n: Int): Unit = { var i = 0; while (i < n) { nextLong(); i += 1 } }
}

final class PlainDoubleWriter extends ValueWriter {
  private val out = new BufWriter(64)
  private var n = 0
  override def writeDouble(v: Double): Unit = { out.writeDoubleLE(v); n += 1 }
  def sizeEstimate: Int = out.size
  def count: Int = n
  def finish(): Array[Byte] = out.toArray
}
final class PlainDoubleReader(bytes: Array[Byte], start: Int, end: Int) extends ValueReader {
  private val in = new BufReader(bytes, start, end)
  override def nextDouble(): Double = in.readDoubleLE()
  def skip(n: Int): Unit = in.skipBytes(8 * n)
}

/** Parquet DELTA_BYTE_ARRAY-style: shared-prefix length + suffix. */
final class DeltaStringWriter extends ValueWriter {
  private val out = new BufWriter(256)
  private var prev: Array[Byte] = Array.emptyByteArray
  private var n = 0
  override def writeString(v: String): Unit = {
    val bs = v.getBytes(StandardCharsets.UTF_8)
    var p = 0
    val max = math.min(prev.length, bs.length)
    while (p < max && prev(p) == bs(p)) p += 1
    out.writeVarInt(p)
    out.writeVarInt(bs.length - p)
    out.writeBytes(bs, p, bs.length - p)
    prev = bs; n += 1
  }
  def sizeEstimate: Int = out.size
  def count: Int = n
  def finish(): Array[Byte] = out.toArray
}
/** Each value is `buf(0 until known)` followed by the suffix bytes at
  * `bytes(sufPos until sufPos + sufLen)`. Reading a value copies into `buf`
  * only the previous suffix bytes its shared prefix needs, so `skip` builds
  * no `String` and copies only bytes that a later value shares.
  */
final class DeltaStringReader(bytes: Array[Byte], start: Int, end: Int) extends ValueReader {
  private val in = new BufReader(bytes, start, end)
  private var buf = new Array[Byte](32)
  private var known = 0
  private var sufPos = 0
  private var sufLen = 0

  /** Reads the next value's header and makes its prefix `buf(0 until known)`. */
  private def advance(): Unit = {
    val p = in.readVarInt(); val s = in.readVarInt()
    if (p > known) {
      if (p > buf.length) buf = java.util.Arrays.copyOf(buf, math.max(p, 2 * buf.length))
      System.arraycopy(bytes, sufPos, buf, known, p - known)
    }
    known = p
    sufPos = in.position
    sufLen = s
    in.skipBytes(s)
  }

  override def nextString(): String = {
    advance()
    val n = known + sufLen
    if (n > buf.length) buf = java.util.Arrays.copyOf(buf, math.max(n, 2 * buf.length))
    System.arraycopy(bytes, sufPos, buf, known, sufLen)
    known = n
    sufLen = 0
    new String(buf, 0, n, StandardCharsets.UTF_8)
  }
  def skip(n: Int): Unit = { var i = 0; while (i < n) { advance(); i += 1 } }
}

final class BitBoolWriter extends ValueWriter {
  private val out = new BufWriter(16)
  private var acc = 0; private var bits = 0; private var n = 0
  override def writeBool(v: Boolean): Unit = {
    if (v) acc |= 1 << bits
    bits += 1; n += 1
    if (bits == 8) { out.writeByte(acc); acc = 0; bits = 0 }
  }
  def sizeEstimate: Int = out.size + 1
  def count: Int = n
  def finish(): Array[Byte] = { if (bits > 0) { out.writeByte(acc); acc = 0; bits = 0 }; out.toArray }
}
final class BitBoolReader(bytes: Array[Byte], start: Int, end: Int) extends ValueReader {
  private val in = new BufReader(bytes, start, end)
  private var acc = 0; private var bits = 0
  override def nextBool(): Boolean = {
    if (bits == 0) { acc = in.readByte(); bits = 8 }
    val v = (acc & 1) == 1; acc >>>= 1; bits -= 1; v
  }
  def skip(n: Int): Unit = { var i = 0; while (i < n) { nextBool(); i += 1 } }
}

/** A leaf whose only observed value is literal `null` stores no value bytes. */
final class NullWriter extends ValueWriter {
  private var n = 0
  def sizeEstimate: Int = 0
  def count: Int = n
  def finish(): Array[Byte] = Array.emptyByteArray
}
final class NullReader extends ValueReader {
  def skip(n: Int): Unit = ()
}
