package repro.encoding

import java.nio.charset.StandardCharsets

/** Growable little-endian byte buffer writer used by all codecs.
  *
  * The layouts (§4) write columns into temporary buffers before cutting
  * pages, so the writer exposes `size` for incremental page-budget checks
  * and `toArray`/`writeTo` for the final copy.
  */
final class BufWriter(initial: Int = 64) {
  private var buf = new Array[Byte](math.max(initial, 16))
  private var len = 0

  def size: Int = len

  private def ensure(n: Int): Unit = {
    if (len + n > buf.length) {
      var cap = buf.length
      while (cap < len + n) cap *= 2
      buf = java.util.Arrays.copyOf(buf, cap)
    }
  }

  def writeByte(b: Int): Unit = { ensure(1); buf(len) = b.toByte; len += 1 }

  def writeBytes(bs: Array[Byte], off: Int, n: Int): Unit = {
    ensure(n); System.arraycopy(bs, off, buf, len, n); len += n
  }
  def writeBytes(bs: Array[Byte]): Unit = writeBytes(bs, 0, bs.length)

  /** Unsigned LEB128 varint. */
  def writeVarLong(v0: Long): Unit = {
    var v = v0
    while ((v & ~0x7fL) != 0) { writeByte(((v & 0x7f) | 0x80).toInt); v >>>= 7 }
    writeByte(v.toInt)
  }
  def writeVarInt(v: Int): Unit = writeVarLong(v.toLong & 0xffffffffL)

  /** ZigZag-mapped varint for signed deltas. */
  def writeZigZag(v: Long): Unit = writeVarLong((v << 1) ^ (v >> 63))

  def writeLongLE(v: Long): Unit = {
    ensure(8)
    var i = 0
    while (i < 8) { buf(len + i) = ((v >>> (8 * i)) & 0xff).toByte; i += 1 }
    len += 8
  }
  def writeDoubleLE(v: Double): Unit = writeLongLE(java.lang.Double.doubleToLongBits(v))

  def writeIntLE(v: Int): Unit = {
    ensure(4)
    var i = 0
    while (i < 4) { buf(len + i) = ((v >>> (8 * i)) & 0xff).toByte; i += 1 }
    len += 4
  }

  def writeString(s: String): Unit = {
    val bs = s.getBytes(StandardCharsets.UTF_8)
    writeVarInt(bs.length); writeBytes(bs)
  }

  def toArray: Array[Byte] = java.util.Arrays.copyOf(buf, len)
  def reset(): Unit = { len = 0 }
}

/** Sequential reader over a byte array region; mirrors [[BufWriter]]. */
final class BufReader(val bytes: Array[Byte], start: Int = 0, end0: Int = -1) {
  private var pos = start
  private val end = if (end0 < 0) bytes.length else end0

  def position: Int = pos
  def remaining: Int = end - pos
  def hasRemaining: Boolean = pos < end

  def readByte(): Int = { val b = bytes(pos) & 0xff; pos += 1; b }

  def readBytes(n: Int): Array[Byte] = {
    val out = java.util.Arrays.copyOfRange(bytes, pos, pos + n); pos += n; out
  }
  def skipBytes(n: Int): Unit = { pos += n }

  def readVarLong(): Long = {
    val b0 = bytes(pos)
    if (b0 >= 0) { pos += 1; b0 } // one-byte varint: the common case
    else {
      var shift = 0; var v = 0L; var b = 0
      do { b = readByte(); v |= (b & 0x7fL) << shift; shift += 7 } while ((b & 0x80) != 0)
      v
    }
  }
  def readVarInt(): Int = readVarLong().toInt
  def readZigZag(): Long = { val v = readVarLong(); (v >>> 1) ^ -(v & 1) }

  def readLongLE(): Long = {
    var v = 0L; var i = 0
    while (i < 8) { v |= (bytes(pos + i) & 0xffL) << (8 * i); i += 1 }
    pos += 8; v
  }
  def readDoubleLE(): Double = java.lang.Double.longBitsToDouble(readLongLE())

  def readIntLE(): Int = {
    var v = 0; var i = 0
    while (i < 4) { v |= (bytes(pos + i) & 0xff) << (8 * i); i += 1 }
    pos += 4; v
  }

  def readString(): String = readUtf8(readVarInt())

  /** The next `n` bytes decoded as UTF-8, in place. */
  def readUtf8(n: Int): String = {
    val s = new String(bytes, pos, n, StandardCharsets.UTF_8); pos += n; s
  }
}
