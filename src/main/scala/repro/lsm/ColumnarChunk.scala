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

  def newCursor(columns: Array[ColumnMeta], zone: ZonePredicate): CompCursor =
    new ColumnarCursor(this, columns, zone, chunk)

  def pointLookup(key: Long, asm: Assembler): Option[Option[JObject]] = {
    val i = chunkOf(key)
    if (i < 0) None
    else {
      // The chunk's keys were decoded linearly (the columnar point-lookup
      // cost, §4.6); they are sorted, so finish with a binary search.
      val c = chunk(i)
      find(c, key, new ChunkRecords(c, asm.columns), asm)
    }
  }

  /** Each chunk is read once and its projected column readers sweep
    * forward with batch skips.
    */
  def forwardLookup(asm: Assembler): ForwardLookup =
    new ForwardLookup(this, { i =>
      val c = chunk(i)
      val records = new ChunkRecords(c, asm.columns)
      key => find(c, key, records, asm)
    })

  private def find(c: ColumnarChunk, key: Long, records: => ChunkRecords, asm: Assembler): Option[Option[JObject]] = {
    val slot = java.util.Arrays.binarySearch(c.keys, key)
    if (slot < 0) None
    else if (c.anti(slot)) Some(None)
    else Some(Some(records.recordAt(slot, asm)))
  }
}

/** Column readers over one chunk's live records, which only move forward.
  * Each reader keeps its own position: asking reader `i` for the `live`-th
  * live record skips, in one batch, the records it was not asked for since
  * (a record a filter rejected before that column was read). All readers
  * are opened together, when the first one is asked for. The last record
  * assembled is kept, so a repeated key reads it again.
  */
private final class ChunkRecords(c: ColumnarChunk, columns: Array[ColumnMeta]) {
  private val readers = columns.map(c.reader)
  private val pos = new Array[Int](readers.length) // live records reader i has passed
  private var lastSlot = -1
  private var lastRecord: JObject = _

  /** Reader `i`, positioned at the `live`-th live record. The caller reads
    * that record from it once; asking again for the same record returns it
    * as that read left it.
    */
  def reader(i: Int, live: Int): ColumnChunkReader = {
    val r = readers(i)
    val p = pos(i)
    if (live >= p) {
      if (live > p) r.skipRecords(live - p)
      pos(i) = live + 1
    } else require(live == p - 1, s"column readers only move forward (record $live, reader at $p)")
    r
  }

  /** Every reader, positioned at the `live`-th live record. */
  def at(live: Int): Array[ColumnChunkReader] = {
    var i = 0
    while (i < readers.length) { reader(i, live); i += 1 }
    readers
  }

  /** The record at `slot`, assembled by `asm` (over these columns). */
  def recordAt(slot: Int, asm: Assembler): JObject = {
    if (slot != lastSlot) {
      lastRecord = asm.record(at(PkChunk.rank(c.anti, slot)))
      lastSlot = slot
    }
    lastRecord
  }
}

/** Reconciliation cursor over a columnar component's chunks, read through
  * `chunkAt` (the vertical merge reads them through its own small cache).
  * `advance()` decodes primary keys only; value columns are touched only by
  * `readers()`, which skips the entries never read in one batch. With a
  * zone predicate, entries of chunks it rules out still flow
  * (reconciliation needs their keys) but are flagged `leafPruned`.
  */
final class ColumnarCursor(h: ColumnarHandle, columns: Array[ColumnMeta], zone: ZonePredicate,
                           chunkAt: Int => ColumnarChunk) extends CompCursor {
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

  override def columnar: Boolean = true

  override def readers(): Array[ColumnChunkReader] = chunkRecords.at(live)

  override def reader(i: Int): ColumnChunkReader = chunkRecords.reader(i, live)

  private def chunkRecords: ChunkRecords = {
    require(!isAntimatter, "anti-matter entries have no columns")
    if (records == null) records = new ChunkRecords(c, columns)
    records
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
