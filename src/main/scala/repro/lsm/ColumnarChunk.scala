package repro.lsm

import repro.core._
import repro.lsm.layout.{AmaxLayout, ApaxLayout, FieldDict}
import repro.lsm.layout.AmaxLayout.ZonePredicate

/** One chunk of a columnar component (an APAX page or an AMAX mega leaf):
  * its primary keys in order, their anti-matter bits, and a reader per
  * column over the chunk's live records.
  */
trait ColumnarChunk {
  def keys: Array[Long]
  def anti: Array[Boolean]
  def reader(meta: ColumnMeta): ColumnChunkReader
  /** Zone-map check: can a value of this column in this chunk fall in
    * [lo, hi]? Chunks without a zone map answer true.
    */
  def mayContain(colMeta: ColumnMeta, lo: JValue, hi: JValue): Boolean = true
}

/** The parts of the APAX and AMAX components that only see chunks: the
  * reconciliation cursor, point lookups and forward lookups (§4.4, §4.6).
  * A layout supplies its chunk directory and how to read chunk `i`.
  */
abstract class ColumnarHandle(seq: Long, meta: ComponentMeta, file: PagedFile, metaPath: java.io.File)
    extends ComponentHandle(seq, meta, file, metaPath) {
  def chunk(i: Int): ColumnarChunk

  def newCursor(datasetSchema: Schema, projection: Array[Int], zone: ZonePredicate): CompCursor =
    new ColumnarCursor(this, datasetSchema, projection, zone, chunk)

  /** The columns to decode: the projected ones, or all of this component's. */
  def columns(datasetSchema: Schema, projection: Array[Int]): Array[ColumnMeta] =
    if (projection == null) meta.schema.columns.toArray
    else projection.filter(_ < datasetSchema.numColumns).map(datasetSchema.column)

  def pointLookup(key: Long, datasetSchema: Schema, projection: Array[Int]): Option[Option[JObject]] = {
    val i = chunkOf(key)
    if (i < 0) None
    else {
      // The chunk's keys were decoded linearly (the columnar point-lookup
      // cost, §4.6); they are sorted, so finish with a binary search.
      val c = chunk(i)
      find(c, key, new ChunkRecords(c, columns(datasetSchema, projection), datasetSchema))
    }
  }

  /** Each chunk is read once and its projected column readers sweep
    * forward with batch skips.
    */
  def forwardLookup(datasetSchema: Schema, projection: Array[Int]): ForwardLookup = {
    val cols = columns(datasetSchema, projection)
    new ForwardLookup(this, { i =>
      val c = chunk(i)
      val records = new ChunkRecords(c, cols, datasetSchema)
      key => find(c, key, records)
    })
  }

  private def find(c: ColumnarChunk, key: Long, records: => ChunkRecords): Option[Option[JObject]] = {
    val slot = java.util.Arrays.binarySearch(c.keys, key)
    if (slot < 0) None
    else if (c.anti(slot)) Some(None)
    else Some(Some(records.recordAt(slot)))
  }
}

/** Column readers over one chunk's live records, which only move forward:
  * reading the `live`-th live record skips the ones before it in one batch.
  */
private final class ChunkRecords(c: ColumnarChunk, cols: Array[ColumnMeta], datasetSchema: Schema) {
  private val readers = cols.map(c.reader)
  private var pos = 0 // live records the readers have passed

  /** Global-columnId-indexed shapes of the `live`-th live record. */
  def shapes(live: Int): Array[Shape] = {
    if (live > pos) readers.foreach(_.skipRecords(live - pos))
    pos = live + 1
    val out = new Array[Shape](datasetSchema.numColumns)
    var i = 0
    while (i < readers.length) { out(cols(i).columnId) = readers(i).nextRecordShape(); i += 1 }
    out
  }

  def recordAt(slot: Int): JObject = {
    val sh = shapes(PkChunk.rank(c.anti, slot))
    Assembler.assembleRecord(datasetSchema, id => sh(id))
  }
}

/** Reconciliation cursor over a columnar component's chunks, read through
  * `chunkAt` (the vertical merge reads them through its own small cache).
  * `advance()` decodes primary keys only; value columns are read only by
  * `shapes()`, which skips the entries never materialized in one batch.
  * With a zone predicate, entries of chunks it rules out still flow
  * (reconciliation needs their keys) but are flagged `leafPruned`.
  */
final class ColumnarCursor(h: ColumnarHandle, datasetSchema: Schema, projection: Array[Int],
                           zone: ZonePredicate, chunkAt: Int => ColumnarChunk) extends CompCursor {
  private val projCols = h.columns(datasetSchema, projection)
  private val numChunks = h.chunks.length
  private var chunkIdx = -1
  private var c: ColumnarChunk = _
  private var slot = -1
  private var live = 0 // live entries before `slot` in the chunk
  private var records: ChunkRecords = _
  private var pruned = false
  var key: Long = _
  var isAntimatter: Boolean = _

  def advance(): Boolean = {
    if (c != null && !isAntimatter) live += 1
    slot += 1
    while (c == null || slot >= c.keys.length) {
      chunkIdx += 1
      if (chunkIdx >= numChunks) return false
      c = chunkAt(chunkIdx)
      records = null
      live = 0
      slot = 0
      pruned = zone != null && !zone.mayMatch(c)
    }
    key = c.keys(slot)
    isAntimatter = c.anti(slot)
    true
  }

  override def leafPruned: Boolean = pruned

  override def shapes(): Array[Shape] = {
    require(!isAntimatter, "anti-matter entries have no columns")
    if (records == null) records = new ChunkRecords(c, projCols, datasetSchema)
    records.shapes(live)
  }
}

/** What the APAX and AMAX writers share. Records arrive in key order, each
  * as the column tokens `feed` emits (the flush stripes a record, the
  * vertical merge replays its shapes), into the current chunk's primary-key
  * and column writers; a layout decides when a chunk is full and lays it
  * out in pages.
  */
abstract class ColumnarWriter(kind: LayoutKind, schema: Schema, dict: FieldDict, config: LsmConfig)
    extends ComponentWriter(kind, schema, dict, config) {
  protected var pk = new PkChunk.Writer
  protected var writers: Array[ColumnChunkWriter] = newWriters()
  private val sink: ColumnSink = new ColumnSink {
    def entry(col: Int, defLevel: Int, value: JValue): Unit = writers(col).entry(defLevel, value)
    def delimiter(col: Int, d: Int): Unit = writers(col).delimiter(d)
  }
  protected var chunkMinKey = Long.MaxValue
  protected var chunkMaxKey = Long.MinValue

  private def newWriters(): Array[ColumnChunkWriter] =
    schema.columns.map(m => new ColumnChunkWriter(m)).toArray

  def add(key: Long, antimatter: Boolean, feed: ColumnSink => Unit): Unit = {
    pk.add(key, antimatter)
    if (!antimatter) feed(sink)
    chunkMinKey = math.min(chunkMinKey, key); chunkMaxKey = math.max(chunkMaxKey, key)
    count(key, antimatter)
    if (chunkFull) cutChunk()
  }

  protected def chunkFull: Boolean

  /** Writes the current chunk's pages (nothing when it is empty) and starts
    * the next chunk.
    */
  protected def cutChunk(): Unit

  protected def nextChunk(): Unit = {
    pk = new PkChunk.Writer
    writers = newWriters()
    chunkMinKey = Long.MaxValue; chunkMaxKey = Long.MinValue
  }
}

object ColumnarWriter {
  def apply(kind: LayoutKind, schema: Schema, dict: FieldDict, config: LsmConfig): ColumnarWriter =
    if (kind == LayoutKind.Apax) new ApaxLayout.Writer(schema, dict, config)
    else new AmaxLayout.Writer(schema, dict, config)
}
