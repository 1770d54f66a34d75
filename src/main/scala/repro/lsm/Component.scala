package repro.lsm

import repro.core._
import repro.encoding._
import repro.lsm.layout.{AmaxLayout, ApaxLayout, FieldDict, RowLayout}
import repro.lsm.layout.AmaxLayout.ZonePredicate

/** The four storage layouts under evaluation (§6). */
sealed abstract class LayoutKind(val name: String) {
  def isColumnar: Boolean = this == LayoutKind.Apax || this == LayoutKind.Amax
}
object LayoutKind {
  case object Open extends LayoutKind("open")
  case object VB extends LayoutKind("vb")
  case object Apax extends LayoutKind("apax")
  case object Amax extends LayoutKind("amax")
  val all: Seq[LayoutKind] = Seq(Open, VB, Apax, Amax)
  def byName(n: String): LayoutKind = all.find(_.name == n).get
}

/** Tunables; defaults follow the paper's experiment setup (§6). */
final case class LsmConfig(
    pageSize: Int = 128 * 1024,
    memBudgetBytes: Long = 8L << 20,
    amaxLeafRecords: Int = 15000,
    emptyPageTolerance: Double = 0.15,
    tieringSizeRatio: Double = 1.2,
    maxComponents: Int = 5,
    bufferCachePages: Int = 2048, // 2048 × 128 KB = 256 MB logical
)

/** Primary-key column chunk (§3.2.3): definition level 1 ⇒ record,
  * 0 ⇒ anti-matter; the key *value* is stored either way (anti-matter is a
  * key plus a tombstone bit). Delta-encoded keys, as PKs arrive sorted.
  */
object PkChunk {
  final class Writer {
    private val defs = new DefLevelWriter(1)
    private val keys = new DeltaLongWriter
    private var n = 0
    def add(key: Long, antimatter: Boolean): Unit = {
      defs.write(if (antimatter) 0 else 1); keys.writeLong(key); n += 1
    }
    def count: Int = n
    def sizeEstimate: Int = defs.sizeEstimate + keys.sizeEstimate
    def finish(): Array[Byte] = {
      val d = defs.finish()
      val out = new BufWriter(d.length + 16)
      out.writeVarInt(d.length); out.writeBytes(d); out.writeBytes(keys.finish())
      out.toArray
    }
  }

  /** Decodes the whole chunk eagerly — this *is* the linear decode cost the
    * paper charges point lookups in columnar layouts (§4.6).
    */
  def decode(bytes: Array[Byte], start: Int, end: Int, n: Int): (Array[Long], Array[Boolean]) = {
    val in = new BufReader(bytes, start, end)
    val defLen = in.readVarInt()
    val defs = new DefLevelReader(bytes, in.position, in.position + defLen)
    in.skipBytes(defLen)
    val keyReader = new DeltaLongReader(bytes, in.position, end)
    val keys = new Array[Long](n)
    val anti = new Array[Boolean](n)
    var i = 0
    while (i < n) { anti(i) = defs.next() == 0; keys(i) = keyReader.nextLong(); i += 1 }
    (keys, anti)
  }

  /** Live (non-anti-matter) entries before `slot`: the position of the
    * record at `slot` in its page's or leaf's value columns.
    */
  def rank(anti: Array[Boolean], slot: Int): Int = {
    var live = 0
    var i = 0
    while (i < slot) { if (!anti(i)) live += 1; i += 1 }
    live
  }
}

/** Per-component metadata ("metadata page"): layout, entry counts, key range,
  * the schema inferred up to this flush/merge (§2.2), the VB field
  * dictionary, the physical page-offset table, and a layout-specific
  * directory blob (page/leaf index).
  */
final case class ComponentMeta(
    layout: LayoutKind,
    numEntries: Long,
    numAntimatter: Long,
    minKey: Long,
    maxKey: Long,
    schema: Schema,
    dict: FieldDict,
    pageOffsets: Array[Long],
    directory: Array[Byte],
    pageSize: Int = 128 * 1024,
) {
  def serialize(): Array[Byte] = {
    val out = new BufWriter(1024)
    out.writeString(layout.name)
    out.writeVarInt(pageSize)
    out.writeVarLong(numEntries); out.writeVarLong(numAntimatter)
    out.writeLongLE(minKey); out.writeLongLE(maxKey)
    val sb = schema.serialize()
    out.writeVarInt(sb.length); out.writeBytes(sb)
    dict.serialize(out)
    out.writeVarInt(pageOffsets.length)
    pageOffsets.foreach(out.writeVarLong)
    out.writeVarInt(directory.length); out.writeBytes(directory)
    out.toArray
  }
}
object ComponentMeta {
  def deserialize(bytes: Array[Byte]): ComponentMeta = {
    val in = new BufReader(bytes)
    val layout = LayoutKind.byName(in.readString())
    val pageSize = in.readVarInt()
    val ne = in.readVarLong(); val na = in.readVarLong()
    val mn = in.readLongLE(); val mx = in.readLongLE()
    val sb = in.readBytes(in.readVarInt())
    val schema = Schema.deserialize(sb)
    val dict = FieldDict.deserialize(in)
    val off = Array.fill(in.readVarInt())(in.readVarLong())
    val dir = in.readBytes(in.readVarInt())
    ComponentMeta(layout, ne, na, mn, mx, schema, dict, off, dir, pageSize)
  }
}

/** One entry of a component's chunk directory: a row or APAX page, or an
  * AMAX mega leaf, with its entry count and key range.
  */
final case class PageInfo(nRecs: Int, minKey: Long, maxKey: Long)

object PageInfo {
  /** The page directory of a row or APAX component's meta. */
  def parse(dir: Array[Byte]): Array[PageInfo] = {
    val in = new BufReader(dir)
    Array.fill(in.readVarInt())(PageInfo(in.readVarInt(), in.readLongLE(), in.readLongLE()))
  }

  def write(dir: Iterable[PageInfo]): Array[Byte] = {
    val out = new BufWriter(dir.size * 20 + 8)
    out.writeVarInt(dir.size)
    dir.foreach { p => out.writeVarInt(p.nRecs); out.writeLongLE(p.minKey); out.writeLongLE(p.maxKey) }
    out.toArray
  }
}

/** Cursor over one component's entries in key order.
  *
  * Reconciliation contract (§4.4): `advance()` positions the next entry and
  * exposes only `key`/`isAntimatter` (PK decode only). Value columns advance
  * lazily — entries never materialized just add to a pending skip, applied
  * in batch when `shapes()` is finally called.
  */
trait CompCursor {
  def advance(): Boolean
  def key: Long
  def isAntimatter: Boolean
  /** True when the entry's AMAX leaf was ruled out by the scan's zone
    * predicate: none of its values can satisfy it (§4.4).
    */
  def leafPruned: Boolean = false
  /** Global-columnId-indexed shapes for the projected columns: columnar
    * sources only, at most one call per positioned entry. Null for row-major
    * sources (Open/VB/memory), which expose `record()` instead.
    */
  def shapes(): Array[Shape] = null
  /** The decoded record (row-major sources only). */
  def record(): JObject = null
}

/** A readable on-disk component; `seq` is its sequence number (higher =
  * newer).
  */
abstract class ComponentHandle(val seq: Long, val meta: ComponentMeta, val file: PagedFile,
                               val metaPath: java.io.File) {
  /** The chunk directory, in key order. */
  def chunks: Array[PageInfo]
  /** `projection`: global column ids to materialize (columnar layouts); null
    * = all. `zone` flags entries of AMAX leaves it rules out (may be null).
    */
  def newCursor(datasetSchema: Schema, projection: Array[Int], zone: ZonePredicate): CompCursor
  /** Point lookup (§4.6): Some(None) = anti-matter for this key. `projection`
    * limits the columns decoded/assembled (secondary-index maintenance only
    * needs the indexed fields' old values).
    */
  def pointLookup(key: Long, datasetSchema: Schema, projection: Array[Int]): Option[Option[JObject]]
  /** Lookups of ascending keys that reuse each chunk they open. */
  def forwardLookup(datasetSchema: Schema, projection: Array[Int]): ForwardLookup
  def sizeOnDisk: Long = file.sizeOnDisk
  def delete(): Unit = { file.delete(); metaPath.delete(): Unit }

  /** The chunk whose key range holds `key`, or -1: a binary search over
    * the directory.
    */
  final def chunkOf(key: Long): Int = {
    if (meta.numEntries == 0 || key < meta.minKey || key > meta.maxKey) return -1
    val dir = chunks
    var lo = 0; var hi = dir.length - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      if (key < dir(mid).minKey) hi = mid - 1
      else if (key > dir(mid).maxKey) lo = mid + 1
      else return mid
    }
    -1
  }
}

object ComponentHandle {
  /** The sequence number in a component file's name (`c<seq>.data`/`.meta`). */
  def seqOf(f: java.io.File): Long = f.getName.stripPrefix("c").takeWhile(_.isDigit).toLong

  def apply(meta: ComponentMeta, file: PagedFile, metaPath: java.io.File): ComponentHandle = {
    val seq = seqOf(metaPath)
    meta.layout match {
      case LayoutKind.Amax => new AmaxLayout.Handle(seq, meta, file, metaPath)
      case LayoutKind.Apax => new ApaxLayout.Handle(seq, meta, file, metaPath)
      case _               => new RowLayout.Handle(seq, meta, file, metaPath)
    }
  }

  /** Reopens the component whose meta is at `metaPath`. */
  def open(metaPath: java.io.File, cache: BufferCache): ComponentHandle = {
    val meta = ComponentMeta.deserialize(java.nio.file.Files.readAllBytes(metaPath.toPath))
    val dataPath = new java.io.File(metaPath.getParentFile, s"c${seqOf(metaPath)}.data")
    apply(meta, PagedFile.open(dataPath, meta.pageOffsets, cache), metaPath)
  }
}

/** What the three component writers share: the pages, entry counts and
  * key range, and writing the data file and then the meta.
  */
abstract class ComponentWriter(kind: LayoutKind, schema: Schema, dict: FieldDict, config: LsmConfig) {
  protected val pages = scala.collection.mutable.ArrayBuffer.empty[Array[Byte]]
  private var nEntries = 0L
  private var nAnti = 0L
  private var minKey = Long.MaxValue
  private var maxKey = Long.MinValue

  protected def count(key: Long, antimatter: Boolean): Unit = {
    minKey = math.min(minKey, key); maxKey = math.max(maxKey, key)
    nEntries += 1; if (antimatter) nAnti += 1
  }

  /** Cuts the last page or leaf and returns the directory blob. */
  protected def finishPages(): Array[Byte]

  def finish(dataPath: java.io.File, metaPath: java.io.File, cache: BufferCache): ComponentHandle = {
    val directory = finishPages()
    val file = PagedFile.write(dataPath, pages, cache)
    val meta = ComponentMeta(kind, nEntries, nAnti,
      if (nEntries == 0) 0 else minKey, if (nEntries == 0) 0 else maxKey,
      schema, dict, file.pageOffsets, directory, config.pageSize)
    java.nio.file.Files.write(metaPath.toPath, meta.serialize())
    ComponentHandle(meta, file, metaPath)
  }
}

/** Forward-only lookups of ascending keys in one component (§4.6, Luo et
  * al.'s stateful cursor): the chunk directory is walked once, and
  * `open(i)` reads chunk i once and returns its lookup.
  */
final class ForwardLookup(h: ComponentHandle, open: Int => (Long => Option[Option[JObject]])) {
  private val dir = h.chunks
  private var i = 0
  private var inChunk: Long => Option[Option[JObject]] = _

  def lookup(key: Long): Option[Option[JObject]] = {
    while (i < dir.length && key > dir(i).maxKey) { i += 1; inChunk = null }
    if (i >= dir.length || key < dir(i).minKey) None
    else {
      if (inChunk == null) inChunk = open(i)
      inChunk(key)
    }
  }
}
