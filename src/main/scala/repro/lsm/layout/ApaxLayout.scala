package repro.lsm.layout

import repro.core._
import repro.encoding.{BufReader, BufWriter}
import repro.lsm._
import scala.collection.mutable

/** APAX (§4.2): PAX-style pages inside the LSM B⁺-tree. Every leaf page
  * holds *all* columns as encoded minipages, so a scan reads whole pages
  * regardless of projection (the property Figure 16a exposes), but all of a
  * record's columns are one page away.
  *
  * Page layout: `[nRecs varint][nCols varint][minKey 8B][maxKey 8B]
  * [pkLen varint][pkChunk]` then per column `[colId varint][len varint]
  * [chunk]` where each chunk is `[defLen][defBytes][valueBytes]` (§4.2's
  * "first four bytes determine the size of the encoded definition levels").
  */
object ApaxLayout {

  /** One record's token emission (flush path stripes a JObject; merge path
    * replays parsed shapes — §4.5.3's vertical merge).
    */
  type ColumnFeeder = ColumnSink => Unit

  final class Writer(schema: Schema, dict: FieldDict, config: LsmConfig, kind: LayoutKind = LayoutKind.Apax) {
    private val pages = mutable.ArrayBuffer.empty[Array[Byte]]
    private val pageDir = mutable.ArrayBuffer.empty[(Int, Long, Long)] // nRecs, minKey, maxKey
    private var pk = new PkChunk.Writer
    private var writers: Array[ColumnChunkWriter] = newWriters()
    private val sink: ColumnSink = new ColumnSink {
      def entry(col: Int, defLevel: Int, value: JValue): Unit = writers(col).entry(defLevel, value)
      def delimiter(col: Int, d: Int): Unit = writers(col).delimiter(d)
    }
    private var pageMinKey = Long.MaxValue
    private var pageMaxKey = Long.MinValue
    private var nEntries = 0L
    private var nAnti = 0L
    private var minKey = Long.MaxValue
    private var maxKey = Long.MinValue

    private def newWriters(): Array[ColumnChunkWriter] =
      schema.columns.map(m => new ColumnChunkWriter(m)).toArray

    def add(key: Long, antimatter: Boolean, feed: ColumnFeeder): Unit = {
      pk.add(key, antimatter)
      if (!antimatter) feed(sink)
      pageMinKey = math.min(pageMinKey, key); pageMaxKey = math.max(pageMaxKey, key)
      minKey = math.min(minKey, key); maxKey = math.max(maxKey, key)
      nEntries += 1; if (antimatter) nAnti += 1
      if (estimate() >= config.pageSize) cutPage()
    }

    private def estimate(): Int = {
      var s = pk.sizeEstimate + 32
      var i = 0
      while (i < writers.length) { s += writers(i).sizeEstimate + 6; i += 1 }
      s
    }

    private def cutPage(): Unit = {
      if (pk.count == 0) return
      val out = new BufWriter(config.pageSize)
      out.writeVarInt(pk.count)
      out.writeVarInt(writers.length)
      out.writeLongLE(pageMinKey); out.writeLongLE(pageMaxKey)
      val pkBytes = pk.finish()
      out.writeVarInt(pkBytes.length); out.writeBytes(pkBytes)
      writers.foreach { w =>
        val b = w.finish()
        out.writeVarInt(w.meta.columnId); out.writeVarInt(b.length); out.writeBytes(b)
      }
      pages += out.toArray
      pageDir += ((pk.count, pageMinKey, pageMaxKey))
      pk = new PkChunk.Writer
      writers = newWriters()
      pageMinKey = Long.MaxValue; pageMaxKey = Long.MinValue
    }

    def finish(dataPath: java.io.File, metaPath: java.io.File, cache: BufferCache): ComponentHandle = {
      cutPage()
      val file = PagedFile.write(dataPath, pages, cache)
      val dir = new BufWriter(64)
      dir.writeVarInt(pageDir.length)
      pageDir.foreach { case (n, mn, mx) => dir.writeVarInt(n); dir.writeLongLE(mn); dir.writeLongLE(mx) }
      val meta = ComponentMeta(kind, nEntries, nAnti,
        if (nEntries == 0) 0 else minKey, if (nEntries == 0) 0 else maxKey,
        schema, dict, file.pageOffsets, dir.toArray, config.pageSize)
      java.nio.file.Files.write(metaPath.toPath, meta.serialize())
      val seq = dataPath.getName.stripPrefix("c").takeWhile(_.isDigit).toLong
      new Handle(seq, meta, file, metaPath)
    }
  }

  final case class PageInfo(nRecs: Int, minKey: Long, maxKey: Long)

  /** Parsed in-memory view of one APAX page. */
  final class PageView(raw: Array[Byte]) {
    private val in = new BufReader(raw)
    val nRecs: Int = in.readVarInt()
    val nCols: Int = in.readVarInt()
    val minKey: Long = in.readLongLE()
    val maxKey: Long = in.readLongLE()
    private val pkLen = in.readVarInt()
    private val pkStart = in.position
    val (keys, anti) = PkChunk.decode(raw, pkStart, pkStart + pkLen, nRecs)
    // Column directory: the page holds every column id below nCols, listed
    // in id order; chunk [start, end) by column id.
    private val chunkStart = new Array[Int](nCols)
    private val chunkEnd = new Array[Int](nCols)
    locally {
      in.skipBytes(pkLen)
      var i = 0
      while (i < nCols) {
        val id = in.readVarInt(); val len = in.readVarInt()
        chunkStart(id) = in.position; chunkEnd(id) = in.position + len
        in.skipBytes(len)
        i += 1
      }
    }

    def reader(meta: ColumnMeta): ColumnChunkReader = {
      val id = meta.columnId
      if (id < nCols) new ColumnChunkReader(meta, raw, chunkStart(id), chunkEnd(id))
      else ColumnChunkReader.allAbsent(meta)
    }
  }

  final class Handle(val seq: Long, val meta: ComponentMeta, val file: PagedFile,
                     val metaPath: java.io.File) extends ComponentHandle {
    lazy val dir: Array[PageInfo] = {
      val in = new BufReader(meta.directory)
      Array.fill(in.readVarInt())(PageInfo(in.readVarInt(), in.readLongLE(), in.readLongLE()))
    }

    def newCursor(datasetSchema: Schema, projection: Array[Int]): CompCursor =
      new Cursor(datasetSchema, projection)

    final class Cursor(datasetSchema: Schema, projection: Array[Int]) extends CompCursor {
      private val projCols: Array[ColumnMeta] =
        (if (projection == null) meta.schema.columns.toArray
         else projection.filter(_ < datasetSchema.numColumns).map(datasetSchema.column))

      private var pageIdx = -1
      private var view: PageView = _
      private var slot = -1
      private var readers: Array[ColumnChunkReader] = _
      private var pendingSkip = 0
      private var materialized = false
      var key: Long = _
      var isAntimatter: Boolean = _

      def advance(): Boolean = {
        if (view != null && slot >= 0 && !isAntimatter && !materialized) pendingSkip += 1
        materialized = false
        slot += 1
        while (view == null || slot >= view.nRecs) {
          pageIdx += 1
          if (pageIdx >= file.numPages) return false
          view = new PageView(file.readPage(pageIdx))
          readers = null
          pendingSkip = 0
          slot = 0
        }
        key = view.keys(slot)
        isAntimatter = view.anti(slot)
        true
      }

      def rowMajor: Boolean = false

      def shapes(): Array[Shape] = {
        require(!isAntimatter, "anti-matter entries have no columns")
        if (readers == null) readers = projCols.map(view.reader)
        if (pendingSkip > 0) { readers.foreach(_.skipRecords(pendingSkip)); pendingSkip = 0 }
        materialized = true
        val out = new Array[Shape](datasetSchema.numColumns)
        var i = 0
        while (i < readers.length) { out(projCols(i).columnId) = readers(i).nextRecordShape(); i += 1 }
        out
      }

      def record(): JObject = {
        val sh = shapes()
        Assembler.assembleRecord(datasetSchema, id => sh(id))
      }
    }

    def pointLookup(key: Long, datasetSchema: Schema,
                    projection: Array[Int] = null): Option[Option[JObject]] = {
      if (meta.numEntries == 0 || key < meta.minKey || key > meta.maxKey) return None
      val cols: Seq[ColumnMeta] =
        if (projection == null) meta.schema.columns
        else projection.filter(_ < datasetSchema.numColumns).map(datasetSchema.column).toSeq
      var lo = 0; var hi = dir.length - 1
      while (lo <= hi) {
        val mid = (lo + hi) >>> 1
        if (key < dir(mid).minKey) hi = mid - 1
        else if (key > dir(mid).maxKey) lo = mid + 1
        else {
          val view = new PageView(file.readPage(mid))
          // Keys were decoded linearly (the columnar point-lookup cost, §4.6);
          // they are sorted, so finish with a binary search.
          val slot = java.util.Arrays.binarySearch(view.keys, key)
          if (slot < 0) return None
          if (view.anti(slot)) return Some(None)
          val skip = PkChunk.rank(view.anti, slot)
          val shapes = new Array[Shape](datasetSchema.numColumns)
          cols.foreach { m =>
            val r = view.reader(m)
            r.skipRecords(skip)
            shapes(m.columnId) = r.nextRecordShape()
          }
          return Some(Some(Assembler.assembleRecord(datasetSchema, id => shapes(id))))
        }
      }
      None
    }
  }

  def open(seq: Long, dataPath: java.io.File, metaPath: java.io.File, cache: BufferCache): Handle = {
    val meta = ComponentMeta.deserialize(java.nio.file.Files.readAllBytes(metaPath.toPath))
    new Handle(seq, meta, PagedFile.open(dataPath, meta.pageOffsets, cache), metaPath)
  }
}
