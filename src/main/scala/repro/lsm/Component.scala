package repro.lsm

import repro.core._
import repro.encoding._
import repro.lsm.layout.FieldDict

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
  def meta: ColumnMeta = ColumnMeta(-1, "_pk", AtomicType.TLong, 1, Vector.empty)

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

/** Cursor over one component's entries in key order.
  *
  * Reconciliation contract (§4.4): `advance()` positions the next entry and
  * exposes only `key`/`isAntimatter` (PK decode only). Value columns advance
  * lazily — entries never materialized just add to a pending skip, applied
  * in batch when `shapes()`/`record()` is finally called.
  */
trait CompCursor {
  def advance(): Boolean
  def key: Long
  def isAntimatter: Boolean
  /** True for row-major sources (Open/VB/memory): `record()` is a direct
    * decode and `shapes()` is null.
    */
  def rowMajor: Boolean
  /** Global-columnId-indexed shapes for the projected columns (columnar
    * only). At most one `shapes()`/`record()` call per positioned entry.
    */
  def shapes(): Array[Shape]
  /** Assembled (projected) record. */
  def record(): JObject
}

/** A readable on-disk component. */
trait ComponentHandle {
  def seq: Long // component sequence number; higher = newer
  def meta: ComponentMeta
  def file: PagedFile
  /** `projection`: global column ids to materialize (columnar layouts); null = all. */
  def newCursor(datasetSchema: Schema, projection: Array[Int]): CompCursor
  /** Point lookup (§4.6): Some(None) = anti-matter for this key. `projection`
    * limits the columns decoded/assembled (secondary-index maintenance only
    * needs the indexed fields' old values).
    */
  def pointLookup(key: Long, datasetSchema: Schema,
                  projection: Array[Int] = null): Option[Option[JObject]]
  def sizeOnDisk: Long = file.sizeOnDisk
  def delete(): Unit = { file.delete(); metaPath.delete(): Unit }
  def metaPath: java.io.File
}
