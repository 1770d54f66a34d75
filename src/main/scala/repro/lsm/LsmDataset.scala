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
        if (layout == LayoutKind.Apax) {
          val w = new ApaxLayout.Writer(schema, dict, config)
          decoded.foreach { case (k, r) =>
            w.add(k, r == null, if (r == null) null else (s: ColumnSink) => striper.stripe(r, s))
          }
          w.finish(dataPath, metaPath, cache)
        } else {
          val w = new AmaxLayout.Writer(schema, dict, config)
          decoded.foreach { case (k, r) =>
            w.add(k, r == null, if (r == null) null else (s: ColumnSink) => striper.stripe(r, s))
          }
          w.finish(dataPath, metaPath, cache)
        }
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
    foreachReconciled(group, projection = null, zone = null) { (key, anti, cursor) =>
      if (anti) { if (!dropAnti) w.add(key, antimatter = true, null) }
      else w.add(key, antimatter = false, serializeRow(cursor.record()))
    }
    w.finish(dataPath, metaPath, cache)
  }

  /** K-way reconciling iteration over `group` (newest wins, equal keys
    * annihilate). Used by row merges; scans use [[scan]].
    */
  private def foreachReconciled(group: List[ComponentHandle], projection: Array[Int],
                                zone: AmaxLayout.ZonePredicate)
                               (f: (Long, Boolean, CompCursor) => Unit): Unit = {
    val cursors = group.map(h => (h.seq, h.newCursor(schema, projection))).toArray
    val pq = new java.util.PriorityQueue[(Long, Long, Int)](11,
      (a: (Long, Long, Int), b: (Long, Long, Int)) => {
        val c = java.lang.Long.compare(a._1, b._1)
        if (c != 0) c else java.lang.Long.compare(b._2, a._2) // higher seq first
      })
    cursors.zipWithIndex.foreach { case ((seq, c), i) => if (c.advance()) pq.add((c.key, seq, i)) }
    while (!pq.isEmpty) {
      val (key, _, wi) = pq.poll()
      val winner = cursors(wi)._2
      // Drain losers with the same key (shadowed versions / annihilated pairs).
      while (!pq.isEmpty && pq.peek()._1 == key) {
        val (_, _, li) = pq.poll()
        val lc = cursors(li)._2
        if (lc.advance()) pq.add((lc.key, cursors(li)._1, li))
      }
      f(key, winner.isAntimatter, winner)
      if (winner.advance()) pq.add((winner.key, cursors(wi)._1, wi))
    }
  }

  // ------------------------------------------------------------------ reads

  /** Reconciled scan over memory + all components. `projection` = global
    * column ids (columnar layouts); `zone` enables AMAX leaf pruning.
    */
  def scan(projection: Array[Int] = null,
           zone: AmaxLayout.ZonePredicate = null): Iterator[ScanTuple] = {
    val srcs = mutable.ArrayBuffer.empty[(Long, CompCursor)]
    components.foreach {
      case h: AmaxLayout.Handle if zone != null =>
        srcs += ((h.seq, h.newCursor(schema, projection, zone)))
      case h => srcs += ((h.seq, h.newCursor(schema, projection)))
    }
    // Memory component as a pseudo-cursor with the highest sequence.
    val memCursor = new CompCursor {
      private val it = mem.entrySet().iterator()
      private var cur: java.util.Map.Entry[Long, MemEntry] = _
      def advance(): Boolean = { if (it.hasNext) { cur = it.next(); true } else false }
      def key: Long = cur.getKey
      def isAntimatter: Boolean = cur.getValue.anti
      def rowMajor: Boolean = true
      def shapes(): Array[Shape] = null
      def record(): JObject = decodeMem(cur.getValue)
    }
    srcs += ((Long.MaxValue, memCursor))

    new Iterator[ScanTuple] {
      private val pq = new java.util.PriorityQueue[(Long, Long, Int)](11,
        (a: (Long, Long, Int), b: (Long, Long, Int)) => {
          val c = java.lang.Long.compare(a._1, b._1)
          if (c != 0) c else java.lang.Long.compare(b._2, a._2)
        })
      srcs.zipWithIndex.foreach { case ((_, c), i) =>
        if (c.advance()) pq.add((c.key, srcs(i)._1, i))
      }
      private var nextTuple: ScanTuple = _
      // The winning cursor may only advance after the caller is done with the
      // tuple (shapes/record are read lazily off the live cursor), so the
      // advance is deferred to the next computeNext() call.
      private var lastWinner: Int = -1

      private def computeNext(): Unit = {
        nextTuple = null
        if (lastWinner >= 0) {
          val c = srcs(lastWinner)._2
          if (c.advance()) pq.add((c.key, srcs(lastWinner)._1, lastWinner))
          lastWinner = -1
        }
        while (nextTuple == null && !pq.isEmpty) {
          val (key, _, wi) = pq.poll()
          val winner = srcs(wi)._2
          while (!pq.isEmpty && pq.peek()._1 == key) {
            val (_, _, li) = pq.poll()
            val lc = srcs(li)._2
            if (lc.advance()) pq.add((lc.key, srcs(li)._1, li))
          }
          if (!winner.isAntimatter) {
            val isPruned = winner match {
              case c: AmaxLayout.Handle#Cursor => c.leafPruned
              case _ => false
            }
            val k = key
            nextTuple = new ScanTuple {
              val key: Long = k
              // shapes()/record() may be consumed at most once per entry on
              // columnar cursors; cache so callers can mix them freely.
              private var cachedShapes: Array[Shape] = _
              private var cachedRecord: JObject = _
              def shapes(): Array[Shape] = {
                if (cachedShapes == null && !winner.rowMajor) cachedShapes = winner.shapes()
                cachedShapes
              }
              def pruned: Boolean = isPruned
              def record(): JObject = {
                if (cachedRecord == null) {
                  cachedRecord =
                    if (winner.rowMajor) winner.record()
                    else {
                      val sh = shapes()
                      val r = Assembler.assembleRecord(schema, id => sh(id))
                      JObject((pkField -> JLong(k)) +: r.fields)
                    }
                }
                cachedRecord
              }
            }
            lastWinner = wi
          } else {
            if (winner.advance()) pq.add((winner.key, srcs(wi)._1, wi))
          }
        }
      }

      // Compute-on-demand: a returned tuple reads the live cursor, so it
      // stays valid exactly until the caller asks for the next one.
      private var exhausted = false
      def hasNext: Boolean = {
        if (nextTuple == null && !exhausted) {
          computeNext()
          if (nextTuple == null) exhausted = true
        }
        nextTuple != null
      }
      def next(): ScanTuple = {
        if (!hasNext) throw new NoSuchElementException
        val t = nextTuple; nextTuple = null; t
      }
    }
  }

  def pointLookup(key: Long, projection: Array[Int] = null): Option[JObject] = {
    val m = mem.get(key)
    if (m != null) return if (m.anti) None else Some(decodeMem(m))
    components.foreach { h =>
      h.pointLookup(key, schema, projection) match {
        case Some(Some(r)) =>
          return Some(if (r.get(pkField).isEmpty) JObject((pkField -> JLong(key)) +: r.fields) else r)
        case Some(None) => return None
        case None => ()
      }
    }
    None
  }

  /** Batched sorted-PK point lookups (§4.6, Luo et al.'s stateful-cursor
    * approach): keys arrive sorted ascending, so each component keeps a
    * forward-only cursor — chunks are decoded once and column readers sweep
    * forward instead of restarting per key. Columnar components read only
    * the projected columns' pages (Fig. 16c–e's behaviour).
    */
  def batchedLookup(sortedKeys: Array[Long], projection: Array[Int]): Iterator[(Long, JObject)] = {
    val fwd = components.map {
      case h: ApaxLayout.Handle => new ApaxForward(h, projection)
      case h: AmaxLayout.Handle => new AmaxForward(h, projection)
      case h                    => new RowForward(h)
    }
    sortedKeys.iterator.flatMap { key =>
      val m = mem.get(key)
      val res: Option[JObject] =
        if (m != null) { if (m.anti) None else Some(decodeMem(m)) }
        else {
          var out: Option[JObject] = None
          var decided = false
          val it = fwd.iterator
          while (!decided && it.hasNext) {
            it.next().lookup(key) match {
              case Some(Some(r)) =>
                out = Some(if (r.get(pkField).isEmpty) JObject((pkField -> JLong(key)) +: r.fields) else r)
                decided = true
              case Some(None)    => decided = true // anti-matter: key deleted
              case None          => ()
            }
          }
          out
        }
      res.map(key -> _)
    }
  }

  private sealed trait ForwardLookup {
    def lookup(key: Long): Option[Option[JObject]]
  }

  private final class RowForward(h: ComponentHandle) extends ForwardLookup {
    def lookup(key: Long): Option[Option[JObject]] = h.pointLookup(key, schema)
  }

  /** Forward cursor over APAX pages: page decoded once, projected column
    * readers advance monotonically with batch skips.
    */
  private final class ApaxForward(h: ApaxLayout.Handle, projection: Array[Int]) extends ForwardLookup {
    private val projCols =
      (if (projection == null) h.meta.schema.columns.toArray
       else projection.filter(_ < schema.numColumns).map(schema.column))
    private var pageIdx = -1
    private var view: ApaxLayout.PageView = _
    private var readers: Array[repro.core.ColumnChunkReader] = _
    private var posNonAnti = 0

    def lookup(key: Long): Option[Option[JObject]] = {
      if (h.meta.numEntries == 0 || key < h.meta.minKey || key > h.meta.maxKey) return None
      while (pageIdx < h.dir.length && (pageIdx < 0 || key > h.dir(math.max(pageIdx, 0)).maxKey)) {
        pageIdx += 1; view = null
      }
      if (pageIdx >= h.dir.length || key < h.dir(pageIdx).minKey) return None
      if (view == null) {
        view = new ApaxLayout.PageView(h.file.readPage(pageIdx))
        readers = projCols.map(view.reader)
        posNonAnti = 0
      }
      val slot = java.util.Arrays.binarySearch(view.keys, key)
      if (slot < 0) return None
      if (view.anti(slot)) return Some(None)
      val target = PkChunk.rank(view.anti, slot)
      if (target > posNonAnti) { readers.foreach(_.skipRecords(target - posNonAnti)); posNonAnti = target }
      val sh = new Array[Shape](schema.numColumns)
      var i = 0
      while (i < readers.length) { sh(projCols(i).columnId) = readers(i).nextRecordShape(); i += 1 }
      posNonAnti += 1
      Some(Some(Assembler.assembleRecord(schema, id => sh(id))))
    }
  }

  private final class AmaxForward(h: AmaxLayout.Handle, projection: Array[Int]) extends ForwardLookup {
    private val projCols =
      (if (projection == null) h.meta.schema.columns.toArray
       else projection.filter(_ < schema.numColumns).map(schema.column))
    private var leafIdx = -1
    private var view: AmaxLayout.LeafView = _
    private var readers: Array[repro.core.ColumnChunkReader] = _
    private var posNonAnti = 0

    def lookup(key: Long): Option[Option[JObject]] = {
      if (h.meta.numEntries == 0 || key < h.meta.minKey || key > h.meta.maxKey) return None
      while (leafIdx < h.leaves.length && (leafIdx < 0 || key > h.leaves(math.max(leafIdx, 0)).maxKey)) {
        leafIdx += 1; view = null
      }
      if (leafIdx >= h.leaves.length || key < h.leaves(leafIdx).minKey) return None
      if (view == null) {
        view = new AmaxLayout.LeafView(h, h.leaves(leafIdx))
        readers = projCols.map(view.reader)
        posNonAnti = 0
      }
      val slot = java.util.Arrays.binarySearch(view.keys, key)
      if (slot < 0) return None
      if (view.anti(slot)) return Some(None)
      val target = PkChunk.rank(view.anti, slot)
      if (target > posNonAnti) { readers.foreach(_.skipRecords(target - posNonAnti)); posNonAnti = target }
      val sh = new Array[Shape](schema.numColumns)
      var i = 0
      while (i < readers.length) { sh(projCols(i).columnId) = readers(i).nextRecordShape(); i += 1 }
      posNonAnti += 1
      Some(Some(Assembler.assembleRecord(schema, id => sh(id))))
    }
  }

  def sizeOnDisk: Long =
    components.map(_.sizeOnDisk).sum + pkIndex.sizeOnDisk + secondaries.map(_.sizeOnDisk).sum

  def numRecords: Long = scan(projection = Array.emptyIntArray).size
}

object LsmDataset {
  /** Open the on-disk components of a dataset directory for reading (the
    * Spark DataSourceV2 path). The newest component's persisted schema is
    * the dataset schema (always a superset of older ones, §2.2).
    */
  def openReadOnly(dir: java.io.File, cache: BufferCache): LsmDataset = {
    val metaFiles = dir.listFiles((_, n) => n.endsWith(".meta"))
      .sortBy(f => -f.getName.stripPrefix("c").stripSuffix(".meta").toLong)
    require(metaFiles.nonEmpty, s"no components in $dir")
    val handles = metaFiles.toList.map { mf =>
      val seq = mf.getName.stripPrefix("c").stripSuffix(".meta").toLong
      val dataPath = new java.io.File(dir, s"c$seq.data")
      val meta = ComponentMeta.deserialize(java.nio.file.Files.readAllBytes(mf.toPath))
      meta.layout match {
        case LayoutKind.Amax => layout.AmaxLayout.open(seq, dataPath, mf, cache)
        case LayoutKind.Apax => layout.ApaxLayout.open(seq, dataPath, mf, cache)
        case _               => layout.RowLayout.open(seq, dataPath, mf, cache)
      }
    }
    val newest = handles.head.meta
    val ds = new LsmDataset(dir.getName, dir, newest.layout, LsmConfig(), cache)
    ds.components = handles
    ds.schema = newest.schema
    ds.dict = newest.dict
    ds
  }
}
