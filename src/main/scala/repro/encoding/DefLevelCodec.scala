package repro.encoding

/** RLE / bit-packed hybrid encoder for definition levels (Parquet's
  * RLE_DICTIONARY-style level encoding, §4.1).
  *
  * Stream layout: `[bitWidth: 1B][count: varint][runs...]` where each run is
  * either an RLE run `[(len << 1): varint][value: varint]` or a literal run
  * `[(len << 1 | 1): varint][bit-packed values]`. Runs of ≥ 8 equal values
  * are RLE'd; shorter stretches are bit-packed at `bitWidth` bits each.
  * Def levels are tiny non-negative ints (max ≈ nesting depth), so the
  * all-NULL / all-present columns the paper leans on collapse to a few bytes.
  */
final class DefLevelWriter(maxLevel: Int) {
  private val bitWidth = math.max(1, 32 - Integer.numberOfLeadingZeros(math.max(maxLevel, 1)))
  // Literal buffer: a flush happens once it holds ≥ LiteralCap values, and at
  // most 7 are added at a time (a stretch of ≥ 8 equal values is an RLE run).
  private val pending = new Array[Int](DefLevelWriter.LiteralCap + 7)
  private var pendingLen = 0
  private val runs = new BufWriter(64)
  private var count = 0
  private var runValue = -1
  private var runLen = 0

  private def flushLiterals(): Unit = {
    if (pendingLen > 0) {
      runs.writeVarInt((pendingLen << 1) | 1)
      var acc = 0L; var accBits = 0
      var i = 0
      while (i < pendingLen) {
        acc |= pending(i).toLong << accBits
        accBits += bitWidth
        while (accBits >= 8) { runs.writeByte((acc & 0xff).toInt); acc >>>= 8; accBits -= 8 }
        i += 1
      }
      if (accBits > 0) runs.writeByte((acc & 0xff).toInt)
      pendingLen = 0
    }
  }

  private def flushRun(): Unit = {
    if (runLen >= 8) {
      flushLiterals()
      runs.writeVarInt(runLen << 1)
      runs.writeVarInt(runValue)
    } else {
      var i = 0
      while (i < runLen) { pending(pendingLen) = runValue; pendingLen += 1; i += 1 }
      // Cap literal runs so a reader never buffers unbounded literals.
      if (pendingLen >= DefLevelWriter.LiteralCap) flushLiterals()
    }
    runLen = 0
  }

  def write(level: Int): Unit = {
    require(level >= 0 && level <= maxLevel, s"level $level out of [0,$maxLevel]")
    count += 1
    if (level == runValue) { runLen += 1 }
    else { if (runLen > 0) flushRun(); runValue = level; runLen = 1 }
  }

  def sizeEstimate: Int = runs.size + pendingLen + 8

  def finish(): Array[Byte] = {
    if (runLen > 0) flushRun()
    flushLiterals()
    val out = new BufWriter(runs.size + 8)
    out.writeByte(bitWidth)
    out.writeVarInt(count)
    out.writeBytes(runs.toArray)
    out.toArray
  }
}

object DefLevelWriter {
  /** Literal runs are cut once they reach this many values. */
  val LiteralCap = 512
}

/** Iterator over an encoded def-level stream; supports O(runs) `skip`. */
final class DefLevelReader(bytes: Array[Byte], start: Int = 0, end: Int = -1) {
  private val in = new BufReader(bytes, start, end)
  private val bitWidth = in.readByte()
  val numValues: Int = in.readVarInt()
  private var read = 0
  // current run state
  private var rleRemaining = 0
  private var rleValue = 0
  private var litRemaining = 0
  private var litAcc = 0L
  private var litAccBits = 0

  def hasNext: Boolean = read < numValues

  private def loadRun(): Unit = {
    val h = in.readVarInt()
    if ((h & 1) == 0) { rleRemaining = h >>> 1; rleValue = in.readVarInt() }
    else { litRemaining = h >>> 1; litAcc = 0L; litAccBits = 0 }
  }

  def next(): Int = {
    if (rleRemaining == 0 && litRemaining == 0) loadRun()
    read += 1
    if (rleRemaining > 0) { rleRemaining -= 1; rleValue }
    else {
      while (litAccBits < bitWidth) { litAcc |= in.readByte().toLong << litAccBits; litAccBits += 8 }
      val v = (litAcc & ((1L << bitWidth) - 1)).toInt
      litAcc >>>= bitWidth; litAccBits -= bitWidth
      litRemaining -= 1
      v
    }
  }

  /** Advance `n` entries without returning them (reconciliation batch-skip, §4.4). */
  def skip(n: Int): Unit = {
    var left = n
    while (left > 0) {
      if (rleRemaining == 0 && litRemaining == 0) loadRun()
      if (rleRemaining > 0) {
        val step = math.min(left, rleRemaining)
        rleRemaining -= step; read += step; left -= step
      } else { next(); left -= 1 }
    }
  }
}
