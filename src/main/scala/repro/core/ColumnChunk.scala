package repro.core

import repro.encoding._

/** Parsed per-record, per-column structure (DESIGN.md §2).
  *
  * A scalar column's record is a single [[SLeaf]]. An array column's record
  * is an [[SArr]] of element shapes (recursively, for nested arrays), or an
  * [[SLeaf]] terminal when the array chain is missing/NULL/empty at some
  * level. `v` is the decoded atomic value when `d == maxDef`, else null.
  */
sealed trait Shape
final case class SLeaf(d: Int, v: AnyRef) extends Shape
final case class SArr(items: Vector[Shape]) extends Shape

/** Receiver of the striper's per-leaf token stream. */
trait ColumnSink {
  /** One entry token: `value` is non-null iff `defLevel == maxDef` of the column. */
  def entry(col: Int, defLevel: Int, value: JValue): Unit
  /** End-of-array delimiter for ancestor-array index `d` (0 = outermost). */
  def delimiter(col: Int, d: Int): Unit
}

/** Encoder for one column chunk (an APAX minipage / AMAX megapage body).
  *
  * Chunk body layout, exactly as §4.2 describes the minipage: the encoded
  * definition-level size first, then the encoded def levels, then the encoded
  * values: `[defLen: varint][defBytes][valueBytes]`.
  *
  * Delimiters are written into the def-level stream; an outer delimiter
  * subsumes a pending inner one (§3.2.1), implemented by min-coalescing the
  * pending delimiter until the next entry flushes it.
  */
final class ColumnChunkWriter(val meta: ColumnMeta) {
  private val defs = new DefLevelWriter(meta.maxDef)
  private val vals = ValueCodec.writer(meta.tpe)
  private var pendingDelim = -1
  private var nPresent = 0
  var minValue: JValue = JNull
  var maxValue: JValue = JNull

  private def flushDelim(): Unit =
    if (pendingDelim >= 0) { defs.write(pendingDelim); pendingDelim = -1 }

  def entry(defLevel: Int, value: JValue): Unit = {
    flushDelim()
    defs.write(defLevel)
    if (value != null) {
      nPresent += 1
      value match {
        case JLong(v)   => vals.writeLong(v);   stat(value, v < asLong(minValue), v > asLong(maxValue))
        case JDouble(v) => vals.writeDouble(v); stat(value, v < asDouble(minValue), v > asDouble(maxValue))
        case JString(v) => vals.writeString(v)
          stat(value, minValue == JNull || v.compareTo(asString(minValue)) < 0,
                      maxValue == JNull || v.compareTo(asString(maxValue)) > 0)
        case JBool(v)   => vals.writeBool(v)
        case other      => sys.error(s"not a leaf value: $other")
      }
    }
  }

  private def asLong(j: JValue): Long = j match { case JLong(v) => v; case _ => Long.MaxValue }
  private def asDouble(j: JValue): Double = j match { case JDouble(v) => v; case _ => Double.NaN }
  private def asString(j: JValue): String = j match { case JString(v) => v; case _ => "" }
  private def stat(v: JValue, isMin: Boolean, isMax: Boolean): Unit = {
    if (minValue == JNull || isMin) minValue = v
    if (maxValue == JNull || isMax) maxValue = v
  }

  def delimiter(d: Int): Unit =
    pendingDelim = if (pendingDelim < 0) d else math.min(pendingDelim, d)

  def presentCount: Int = nPresent
  def sizeEstimate: Int = defs.sizeEstimate + vals.sizeEstimate + 5

  def finish(): Array[Byte] = {
    flushDelim()
    val defBytes = defs.finish()
    val out = new BufWriter(defBytes.length + vals.sizeEstimate + 8)
    out.writeVarInt(defBytes.length)
    out.writeBytes(defBytes)
    out.writeBytes(vals.finish())
    out.toArray
  }
}

/** Decoder over one encoded column chunk. Record assembly ([[Assembler]])
  * reads it token by token: [[peekDef]]/[[nextDef]] for the def levels and
  * delimiters, then one typed value read per present entry. It also parses a
  * whole record's [[Shape]] (the vertical merge's replay unit) and supports
  * `skipRecords`, which decodes def levels only and bulk-skips values (the
  * batched iterator advance of §4.4).
  *
  * A reader made by [[ColumnChunkReader.allAbsent]] stands for a column the
  * component does not hold: every def level reads as 0 and consumes nothing.
  */
final class ColumnChunkReader private (val meta: ColumnMeta, bytes: Array[Byte], start: Int, end: Int,
                                       absent: Boolean) {
  def this(meta: ColumnMeta, bytes: Array[Byte], start: Int, end: Int) = this(meta, bytes, start, end, false)

  private val in = new BufReader(bytes, start, end)
  private val defLen = if (absent) 0 else in.readVarInt()
  private val defStart = in.position
  private val defs = if (absent) null else new DefLevelReader(bytes, defStart, defStart + defLen)
  private val vals = if (absent) null else ValueCodec.reader(meta.tpe, bytes, defStart + defLen, end)

  private var peeked = -1
  private var hasPeek = false
  private var last = 0

  /** False for a column the component does not hold. */
  def present: Boolean = !absent

  /** The next def level or delimiter, not consumed. */
  def peekDef(): Int =
    if (absent) 0
    else { if (!hasPeek) { peeked = defs.next(); hasPeek = true }; peeked }

  /** The next def level or delimiter, consumed. */
  def nextDef(): Int = { val v = peekDef(); hasPeek = false; last = v; v }

  /** The def level or delimiter [[nextDef]] returned last (0 before any). */
  def lastDef: Int = last

  /** No def level or delimiter is left in the chunk. */
  def atEnd: Boolean = absent || (!hasPeek && !defs.hasNext)

  /** The value of the entry whose def level was just read as `meta.maxDef`. */
  def readLong(): Long = vals.nextLong()
  def readDouble(): Double = vals.nextDouble()
  def readString(): String = vals.nextString()
  def readBool(): Boolean = vals.nextBool()

  private def readValue(): AnyRef = meta.tpe match {
    case AtomicType.TLong   => java.lang.Long.valueOf(vals.nextLong())
    case AtomicType.TDouble => java.lang.Double.valueOf(vals.nextDouble())
    case AtomicType.TString => vals.nextString()
    case AtomicType.TBool   => java.lang.Boolean.valueOf(vals.nextBool())
    case AtomicType.TNull   => null
  }

  /** Parse the next record's shape (consuming its tokens and values). */
  def nextRecordShape(): Shape = {
    if (absent) SLeaf(0, null)
    else if (meta.numArrays == 0) {
      val d = nextDef()
      SLeaf(d, if (d == meta.maxDef) readValue() else null)
    } else {
      val d0 = peekDef()
      if (d0 < meta.arrayLevels(0) + 1) { nextDef(); SLeaf(d0, null) }
      else parseArray(0)
    }
  }

  private def parseElement(j: Int): Shape = {
    if (j == meta.numArrays - 1) {
      val d = nextDef()
      SLeaf(d, if (d == meta.maxDef) readValue() else null)
    } else {
      val d = peekDef()
      if (d < meta.arrayLevels(j + 1) + 1) { nextDef(); SLeaf(d, null) }
      else parseArray(j + 1)
    }
  }

  private def parseArray(j: Int): Shape = {
    val items = Vector.newBuilder[Shape]
    var done = false
    while (!done) {
      items += parseElement(j)
      if (atEnd) done = true
      else {
        val d = peekDef()
        // At this position a value ≤ j is a delimiter (deeper delimiters were
        // consumed inside parseElement; entries here have def ≥ slot level > j).
        if (d <= j) {
          if (d == j) nextDef() // consume: this array's own end marker
          done = true           // d < j: leave for the outer array to consume
        }
      }
    }
    SArr(items.result())
  }

  /** Skip `n` records without materializing values (§4.4 batch advance). */
  def skipRecords(n: Int): Unit = if (!absent) {
    var i = 0
    var present = 0
    if (meta.numArrays == 0) {
      while (i < n) { if (nextDef() == meta.maxDef) present += 1; i += 1 }
    } else {
      while (i < n) { present += skipStructuredRecord(); i += 1 }
    }
    vals.skip(present)
  }

  /** Skips one element of the array at index `j` of this column's array
    * chain (0 = outermost): its def levels, its delimiters of deeper arrays
    * and its values, but not the delimiter that may follow it.
    */
  def skipItem(j: Int): Unit = if (!absent) vals.skip(skipElement(j))

  private def skipStructuredRecord(): Int = {
    val d0 = peekDef()
    if (d0 < meta.arrayLevels(0) + 1) { nextDef(); 0 }
    else skipArray(0)
  }

  private def skipArray(j: Int): Int = {
    var present = 0
    var done = false
    while (!done) {
      present += skipElement(j)
      if (atEnd) done = true
      else {
        val d = peekDef()
        if (d <= j) { if (d == j) nextDef(); done = true }
      }
    }
    present
  }

  private def skipElement(j: Int): Int = {
    if (j == meta.numArrays - 1) { if (nextDef() == meta.maxDef) 1 else 0 }
    else {
      val d = peekDef()
      if (d < meta.arrayLevels(j + 1) + 1) { nextDef(); 0 }
      else skipArray(j + 1)
    }
  }
}

object ColumnChunkReader {
  /** Reader for a column absent from a component's schema: every record is
    * absent (older components, before the column was first observed).
    */
  def allAbsent(meta: ColumnMeta): ColumnChunkReader =
    new ColumnChunkReader(meta, Array.emptyByteArray, 0, 0, absent = true)
}
