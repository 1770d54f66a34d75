package repro.lsm

import repro.core._
import repro.lsm.layout._
import scala.collection.mutable

/** One scan result after LSM reconciliation. */
trait ScanTuple {
  def key: Long
  /** Assembled/decoded record (projected columns only for columnar layouts). */
  def record(): JObject
  /** Per-global-columnId shapes (columnar layouts; null for row/memory tuples). */
  def shapes(): Array[Shape]
  /** True when the tuple comes from a zone-map-pruned AMAX leaf: its values
    * cannot satisfy the scan's predicate, so the engine may skip it without
    * materializing columns (§4.4).
    */
  def pruned: Boolean
}

/** A single-partition LSM-backed document dataset (§2.1.1): an in-memory
  * component absorbing writes, flushed to immutable on-disk components in
  * one of the four layouts, tiering-merged (ratio / max-components per §6.3),
  * with anti-matter deletes and newest-wins reconciliation.
  */
final class LsmDataset(
    val name: String,
    val dir: java.io.File,
    val layout: LayoutKind,
    val config: LsmConfig,
    val cache: BufferCache,
    val pkField: String = "id",
    txLog: TxLog = null,
    val enablePkIndex: Boolean = false,
) {
  dir.mkdirs()

  /** Dataset-latest inferred schema (superset of every component's, §2.2). */
  var schema = new Schema
  var dict = new FieldDict

  private final case class MemEntry(anti: Boolean, bytes: Array[Byte])
  private val mem = new java.util.TreeMap[Long, MemEntry]()
  private var memBytes = 0L

  private var seqCounter = 0L
  /** Newest first. */
  var components: List[ComponentHandle] = Nil

  val pkIndex = new PrimaryKeyIndex
  val secondaries = mutable.ArrayBuffer.empty[SecondaryIndex]

  var numFlushes = 0
  var numMerges = 0
  var pointLookupsDuringIngest = 0L

  // ----------------------------------------------------------------- writes

  private def serializeRow(rec: JObject): Array[Byte] =
    if (layout == LayoutKind.Open) OpenCodec.write(rec) else VbCodec.write(rec, dict)

  private def keyOf(rec: JObject): Long = rec.get(pkField) match {
    case Some(JLong(k)) => k
    case other          => sys.error(s"record lacks long PK '$pkField': $other")
  }

  def upsert(rec: JObject): Unit = {
    val key = keyOf(rec)
    maintainSecondaries(key, Some(rec))
    val bytes = serializeRow(rec)
    if (txLog != null) txLog.append(bytes)
    put(key, MemEntry(anti = false, bytes))
    if (enablePkIndex) pkIndex.insert(key)
  }

  def delete(key: Long): Unit = {
    maintainSecondaries(key, None)
    if (txLog != null) txLog.append(Array.fill(9)(0: Byte))
    put(key, MemEntry(anti = true, Array.emptyByteArray))
  }

  /** Secondary-index maintenance (§4.6): point-lookup the old record (PK
    * index first to skip lookups for brand-new keys), anti-matter its old
    * entry, insert the new one.
    */
  private def maintainSecondaries(key: Long, newRec: Option[JObject]): Unit = {
    if (secondaries.isEmpty) return
    val mayExist = !enablePkIndex || pkIndex.mayContain(key)
    // Only the indexed fields' old values are needed (§4.6), so columnar
    // lookups decode just those columns (still linear PK decode per leaf).
    val projection = secondaries.flatMap(s => schema.leavesUnderPath(s.segments)).toArray
    val old = if (mayExist) { pointLookupsDuringIngest += 1; pointLookup(key, projection) } else None
    secondaries.foreach { s =>
      old.flatMap(s.extract).foreach(v => s.delete(v, key))
      newRec.flatMap(s.extract).foreach(v => s.insert(v, key))
    }
  }

  private def put(key: Long, e: MemEntry): Unit = {
    val prev = mem.put(key, e)
    memBytes += e.bytes.length + 32 - (if (prev != null) prev.bytes.length + 32 else 0)
    if (memBytes >= config.memBudgetBytes) flush()
  }

  private def decodeMem(e: MemEntry): JObject = {
    val v = if (layout == LayoutKind.Open) OpenCodec.read(e.bytes)
            else VbCodec.read(e.bytes, 0, dict)
    v.asInstanceOf[JObject]
  }

  private def stripPk(rec: JObject): JObject =
    JObject(rec.fields.filterNot(_._1 == pkField))

  // ------------------------------------------------------------------ flush

  def flush(): Unit = {
    if (mem.isEmpty) return
    seqCounter += 1
    val dataPath = new java.io.File(dir, s"c$seqCounter.data")
    val metaPath = new java.io.File(dir, s"c$seqCounter.meta")
    val handle: ComponentHandle =
      if (!layout.isColumnar) {
        if (layout == LayoutKind.VB) {
          // The tuple compactor infers the schema during VB flushes too ([23]).
          mem.values.forEach(e => if (!e.anti) schema.observe(stripPk(decodeMem(e))))
        }
        val w = new RowLayout.Writer(layout, schema, dict, config)
        mem.forEach((k, e) => w.add(k, e.anti, e.bytes))
        w.finish(dataPath, metaPath, cache)
      } else {
        // Two-pass flush: infer schema over the whole batch, then stripe —
        // equivalent to the paper's single pass + backfill of new columns.
        val decoded = mutable.ArrayBuffer.empty[(Long, JObject)]
        mem.forEach { (k, e) =>
          if (e.anti) decoded += ((k, null))
          else {
            val r = stripPk(decodeMem(e))
            schema.observe(r)
            decoded += ((k, r))
          }
        }
        val striper = new Striper(schema)
        val w = ColumnarWriter(layout, schema, dict, config)
        decoded.foreach { case (k, r) =>
          w.add(k, r == null, if (r == null) null else (s: ColumnSink) => striper.stripe(r, s))
        }
        w.finish(dataPath, metaPath, cache)
      }
    components = handle :: components
    mem.clear(); memBytes = 0
    numFlushes += 1
    pkIndex.flush()
    secondaries.foreach(_.flush())
    maybeMerge()
  }

  // ------------------------------------------------------------------ merge

  /** Tiering policy (§6.3): merge when the component count exceeds the max;
    * the merged group grows while the younger components' total stays within
    * `sizeRatio` of the next older component.
    */
  private def maybeMerge(): Unit = {
    while (components.length > config.maxComponents) {
      val arr = components.toArray // newest first
      var groupSum = arr(0).sizeOnDisk
      var n = 1
      while (n < arr.length && groupSum * config.tieringSizeRatio >= arr(n).sizeOnDisk) {
        groupSum += arr(n).sizeOnDisk; n += 1
      }
      if (n < 2) n = 2
      mergeComponents(arr.take(n).toList)
    }
  }

  def forceFullMerge(): Unit = {
    flush()
    if (components.length > 1) mergeComponents(components)
  }

  private def mergeComponents(group: List[ComponentHandle]): Unit =
    MergeGovernor.withPermit(layout.isColumnar) {
      val dropAnti = group.contains(components.last)
      seqCounter += 1
      val dataPath = new java.io.File(dir, s"c$seqCounter.data")
      val metaPath = new java.io.File(dir, s"c$seqCounter.meta")
      val handle =
        if (!layout.isColumnar) mergeRows(group, dropAnti, dataPath, metaPath)
        else VerticalMerge.run(this, group, dropAnti, dataPath, metaPath)
      components = handle :: components.filterNot(group.contains)
      group.foreach(_.delete())
      numMerges += 1
      pkIndex.compact()
      secondaries.foreach(_.compact())
    }

  private def mergeRows(group: List[ComponentHandle], dropAnti: Boolean,
                        dataPath: java.io.File, metaPath: java.io.File): ComponentHandle = {
    val w = new RowLayout.Writer(layout, schema, dict, config)
    val r = new Reconciler(group.map(_.newCursor(schema, null, null)).toArray, group.map(_.seq).toArray)
    while (r.next()) {
      r.advanceShadowed()
      if (!r.cursor.isAntimatter) w.add(r.key, antimatter = false, serializeRow(r.cursor.record()))
      else if (!dropAnti) w.add(r.key, antimatter = true, null)
    }
    w.finish(dataPath, metaPath, cache)
  }

  // ------------------------------------------------------------------ reads

  /** Reconciled scan over memory + all components. `projection` = global
    * column ids (columnar layouts); `zone` enables AMAX leaf pruning.
    */
  def scan(projection: Array[Int] = null,
           zone: AmaxLayout.ZonePredicate = null): Iterator[ScanTuple] = {
    // Memory component as a pseudo-cursor with the highest sequence.
    val memCursor = new CompCursor {
      private val it = mem.entrySet().iterator()
      private var cur: java.util.Map.Entry[Long, MemEntry] = _
      def advance(): Boolean = { if (it.hasNext) { cur = it.next(); true } else false }
      def key: Long = cur.getKey
      def isAntimatter: Boolean = cur.getValue.anti
      override def record(): JObject = decodeMem(cur.getValue)
    }
    val r = new Reconciler((components.map(_.newCursor(schema, projection, zone)) :+ memCursor).toArray,
      (components.map(_.seq) :+ Long.MaxValue).toArray)

    // A returned tuple reads the live winning cursor, so it stays valid
    // exactly until the caller asks for the next one.
    new Iterator[ScanTuple] {
      private var ready = false // positioned on a live entry not yet returned
      private var done = false
      def hasNext: Boolean = {
        while (!ready && !done) {
          if (!r.next()) done = true
          else { r.advanceShadowed(); ready = !r.cursor.isAntimatter }
        }
        ready
      }
      def next(): ScanTuple = {
        if (!hasNext) throw new NoSuchElementException
        ready = false
        val winner = r.cursor
        val k = r.key
        new ScanTuple {
          val key: Long = k
          val pruned: Boolean = winner.leafPruned
          // shapes()/record() may be consumed at most once per entry on
          // columnar cursors; cache so callers can mix them freely.
          private var cachedShapes: Array[Shape] = _
          private var cachedRecord: JObject = _
          def shapes(): Array[Shape] = {
            if (cachedShapes == null) cachedShapes = winner.shapes()
            cachedShapes
          }
          def record(): JObject = {
            if (cachedRecord == null) {
              val sh = shapes()
              cachedRecord =
                if (sh == null) winner.record()
                else JObject((pkField -> JLong(k)) +: Assembler.assembleRecord(schema, id => sh(id)).fields)
            }
            cachedRecord
          }
        }
      }
    }
  }

  def pointLookup(key: Long, projection: Array[Int] = null): Option[JObject] =
    lookup(key, components.iterator.map(_.pointLookup(key, schema, projection)))

  /** Batched sorted-PK point lookups (§4.6, Luo et al.'s stateful-cursor
    * approach): keys arrive sorted ascending, so each component keeps a
    * forward-only cursor — chunks are read once and column readers sweep
    * forward instead of restarting per key. Columnar components read only
    * the projected columns' pages (Fig. 16c–e's behaviour).
    */
  def batchedLookup(sortedKeys: Array[Long], projection: Array[Int]): Iterator[(Long, JObject)] = {
    val fwd = components.map(_.forwardLookup(schema, projection))
    sortedKeys.iterator.flatMap(key => lookup(key, fwd.iterator.map(_.lookup(key))).map(key -> _))
  }

  /** The memory component's version of `key`, else the first of the
    * components' `answers` (newest first, evaluated lazily) that knows the
    * key: its record, or None for anti-matter.
    */
  private def lookup(key: Long, answers: Iterator[Option[Option[JObject]]]): Option[JObject] = {
    val m = mem.get(key)
    if (m != null) { if (m.anti) None else Some(decodeMem(m)) }
    else answers.collectFirst { case Some(r) => r }.flatten.map { r =>
      if (r.get(pkField).isEmpty) JObject((pkField -> JLong(key)) +: r.fields) else r
    }
  }

  def sizeOnDisk: Long =
    components.map(_.sizeOnDisk).sum + pkIndex.sizeOnDisk + secondaries.map(_.sizeOnDisk).sum
}

object LsmDataset {
  /** Open the on-disk components of a dataset directory for reading (the
    * Spark DataSourceV2 path). The newest component's persisted schema is
    * the dataset schema (always a superset of older ones, §2.2).
    */
  def openReadOnly(dir: java.io.File, cache: BufferCache): LsmDataset = {
    val handles = dir.listFiles((_, n) => n.endsWith(".meta")).toList
      .map(ComponentHandle.open(_, cache)).sortBy(-_.seq)
    require(handles.nonEmpty, s"no components in $dir")
    val newest = handles.head.meta
    val ds = new LsmDataset(dir.getName, dir, newest.layout, LsmConfig(), cache)
    ds.components = handles
    ds.schema = newest.schema
    ds.dict = newest.dict
    ds
  }
}
