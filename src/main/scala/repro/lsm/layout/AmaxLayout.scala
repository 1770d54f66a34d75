package repro.lsm.layout

import repro.core._
import repro.encoding.{AtomicType, BufReader, BufWriter}
import repro.lsm._
import scala.collection.mutable

/** AMAX (§4.3): mega leaf nodes of ≤ `amaxLeafRecords` records. Page 0 holds
  * the header, per-column min/max prefixes, the column directory, and the
  * encoded primary keys; each column's megapage then occupies a byte span in
  * the leaf's data region, written largest-to-smallest with the
  * empty-page-tolerance rule, so a projection reads only the physical pages
  * its columns touch.
  */
object AmaxLayout {
  /** 8-byte order-preserving prefix used for zone-map filtering in Page 0. */
  def prefixOf(v: JValue): Long = v match {
    case JLong(l)   => l
    case JDouble(d) => java.lang.Double.doubleToLongBits(d)
    case JString(s) =>
      val bs = s.getBytes(java.nio.charset.StandardCharsets.UTF_8)
      var acc = 0L
      var i = 0
      while (i < 8) { acc = (acc << 8) | (if (i < bs.length) bs(i) & 0xffL else 0L); i += 1 }
      acc
    case JBool(b) => if (b) 1L else 0L
    case _        => 0L
  }

  final case class ColDirEntry(colId: Int, start: Int, len: Int,
                               minPrefix: Long, maxPrefix: Long,
                               minStr: String, maxStr: String, exactStr: Boolean) {
    /** Can a value of type `tpe` in this megapage fall in [lo, hi]? */
    def mayContain(tpe: AtomicType, lo: JValue, hi: JValue): Boolean = tpe match {
      case AtomicType.TLong =>
        val l = lo match { case JLong(v) => v; case _ => Long.MinValue }
        val h = hi match { case JLong(v) => v; case _ => Long.MaxValue }
        !(maxPrefix < l || minPrefix > h)
      case AtomicType.TDouble =>
        val l = lo match { case JDouble(v) => v; case _ => Double.NegativeInfinity }
        val h = hi match { case JDouble(v) => v; case _ => Double.PositiveInfinity }
        val mn = java.lang.Double.longBitsToDouble(minPrefix)
        val mx = java.lang.Double.longBitsToDouble(maxPrefix)
        !(mx < l || mn > h)
      case AtomicType.TString =>
        val l = lo match { case JString(v) => v; case _ => null }
        val h = hi match { case JString(v) => v; case _ => null }
        val aboveLo = l == null || exactStr && maxStr.compareTo(l) >= 0 || !exactStr
        val belowHi = h == null || minStr.compareTo(h) <= 0
        aboveLo && belowHi
      case _ => true
    }
  }

  final class Writer(schema: Schema, dict: FieldDict, config: LsmConfig)
      extends ColumnarWriter(LayoutKind.Amax, schema, dict, config) {
    private val leafDir = mutable.ArrayBuffer.empty[LeafInfo]

    protected def chunkFull: Boolean = pk.count >= config.amaxLeafRecords

    private def truncStr(v: JValue): (String, Boolean) = v match {
      case JString(s) => if (s.length <= 48) (s, true) else (s.substring(0, 48), false)
      case _          => ("", false)
    }

    protected def cutChunk(): Unit = {
      if (pk.count == 0) return
      val P = config.pageSize
      // Megapages ordered largest → smallest (§4.3), packed into the data
      // region; the empty-page-tolerance rule decides page sharing.
      val chunks: Array[(ColumnChunkWriter, Array[Byte])] =
        writers.map(w => (w, w.finish())).sortBy(-_._2.length)
      val dirEntries = mutable.ArrayBuffer.empty[ColDirEntry]
      val region = new BufWriter(chunks.map(_._2.length).sum + 64)
      chunks.foreach { case (w, bytes) =>
        val remaining = P - (region.size % P)
        if (bytes.length > remaining && remaining <= (config.emptyPageTolerance * P).toInt) {
          // Pad to the next page boundary rather than splitting the column's
          // first bytes across a mostly-empty page.
          var i = 0
          while (i < remaining) { region.writeByte(0); i += 1 }
        }
        val (ms, msExact) = truncStr(w.minValue)
        val (xs, xsExact) = truncStr(w.maxValue)
        dirEntries += ColDirEntry(w.meta.columnId, region.size, bytes.length,
          prefixOf(w.minValue), prefixOf(w.maxValue), ms, xs, msExact && xsExact)
        region.writeBytes(bytes)
      }
      // Page 0
      val p0 = new BufWriter(config.pageSize / 2)
      p0.writeVarInt(pk.count)
      p0.writeVarInt(dirEntries.length)
      p0.writeLongLE(chunkMinKey); p0.writeLongLE(chunkMaxKey)
      val pkBytes = pk.finish()
      p0.writeVarInt(pkBytes.length); p0.writeBytes(pkBytes)
      dirEntries.foreach { e =>
        p0.writeVarInt(e.colId); p0.writeVarInt(e.start); p0.writeVarInt(e.len)
        p0.writeLongLE(e.minPrefix); p0.writeLongLE(e.maxPrefix)
        p0.writeString(e.minStr); p0.writeString(e.maxStr); p0.writeByte(if (e.exactStr) 1 else 0)
      }
      val startPage = pages.length
      pages += p0.toArray
      val regionBytes = region.toArray
      var off = 0
      while (off < regionBytes.length) {
        val len = math.min(P, regionBytes.length - off)
        pages += java.util.Arrays.copyOfRange(regionBytes, off, off + len)
        off += len
      }
      leafDir += LeafInfo(startPage, pages.length - startPage, pk.count, chunkMinKey, chunkMaxKey)
      nextChunk()
    }

    protected def finishPages(): Array[Byte] = {
      cutChunk()
      val dir = new BufWriter(64)
      dir.writeVarInt(leafDir.length)
      leafDir.foreach { l =>
        dir.writeVarInt(l.startPage); dir.writeVarInt(l.nPages); dir.writeVarInt(l.nRecs)
        dir.writeLongLE(l.minKey); dir.writeLongLE(l.maxKey)
      }
      dir.toArray
    }
  }

  final case class LeafInfo(startPage: Int, nPages: Int, nRecs: Int, minKey: Long, maxKey: Long)

  /** Parsed Page 0 of a mega leaf. */
  final class LeafView(handle: Handle, val info: LeafInfo) extends ColumnarChunk {
    private val p0 = handle.file.readPage(info.startPage)
    private val in = new BufReader(p0)
    val nRecs: Int = in.readVarInt()
    private val nCols = in.readVarInt()
    val minKey: Long = in.readLongLE()
    val maxKey: Long = in.readLongLE()
    private val pkLen = in.readVarInt()
    private val pkStart = { val s = in.position; in.skipBytes(pkLen); s }
    val (keys, anti) = PkChunk.decode(p0, pkStart, pkStart + pkLen, nRecs)
    // Column directory: an entry for every column id below nCols, listed in
    // megapage-size order. One pass records each entry's offset by column id
    // and skips its strings; an entry is parsed only when asked for.
    private val entryAt: Array[Int] = {
      val at = new Array[Int](nCols)
      var i = 0
      while (i < nCols) {
        val pos = in.position
        val id = in.readVarInt()
        in.readVarInt(); in.readVarInt() // start, len
        in.skipBytes(16) // min/max prefixes
        in.skipBytes(in.readVarInt()); in.skipBytes(in.readVarInt()) // min/max strings
        in.skipBytes(1) // exactStr
        at(id) = pos
        i += 1
      }
      at
    }

    /** The directory entry of column `colId`, if this leaf holds it. */
    def entry(colId: Int): Option[ColDirEntry] =
      if (colId >= nCols) None
      else {
        val d = new BufReader(p0, entryAt(colId))
        Some(ColDirEntry(d.readVarInt(), d.readVarInt(), d.readVarInt(), d.readLongLE(), d.readLongLE(),
          d.readString(), d.readString(), d.readByte() == 1))
      }

    /** Read only the physical pages a column's megapage spans (§4.4). */
    def columnBytes(e: ColDirEntry): Array[Byte] = {
      val P = handle.meta.pageSize
      val first = e.start / P
      val last = if (e.len == 0) first else (e.start + e.len - 1) / P
      val out = new Array[Byte](e.len)
      var p = first
      var copied = 0
      while (p <= last) {
        val page = handle.file.readPage(info.startPage + 1 + p)
        val pageBase = p * P
        val from = math.max(e.start, pageBase) - pageBase
        val to = math.min(e.start + e.len, pageBase + page.length) - pageBase
        System.arraycopy(page, from, out, copied, to - from)
        copied += to - from
        p += 1
      }
      out
    }

    def reader(meta: ColumnMeta): ColumnChunkReader =
      entry(meta.columnId) match {
        case Some(e) =>
          val b = columnBytes(e)
          new ColumnChunkReader(meta, b, 0, b.length)
        case None => ColumnChunkReader.allAbsent(meta)
      }

    /** Zone-map check: can any value of `colId` fall in [lo, hi]? (§4.3/§4.4)
      * A column absent from this component matches no record.
      */
    override def mayContain(colMeta: ColumnMeta, lo: JValue, hi: JValue): Boolean =
      entry(colMeta.columnId).exists(_.mayContain(colMeta.tpe, lo, hi))
  }

  final class Handle(seq: Long, meta: ComponentMeta, file: PagedFile, metaPath: java.io.File)
      extends ColumnarHandle(seq, meta, file, metaPath) {
    lazy val leaves: Array[LeafInfo] = {
      val in = new BufReader(meta.directory)
      Array.fill(in.readVarInt())(
        LeafInfo(in.readVarInt(), in.readVarInt(), in.readVarInt(), in.readLongLE(), in.readLongLE()))
    }
    lazy val chunks: Array[PageInfo] = leaves.map(l => PageInfo(l.nRecs, l.minKey, l.maxKey))
    def chunk(i: Int): ColumnarChunk = new LeafView(this, leaves(i))
  }

  /** Conjunction of per-column range predicates for leaf zone-map pruning. */
  final case class ZonePredicate(ranges: Seq[(ColumnMeta, JValue, JValue)]) {
    def mayMatch(chunk: ColumnarChunk): Boolean =
      ranges.forall { case (m, lo, hi) => chunk.mayContain(m, lo, hi) }
  }
}
