package repro.lsm

import repro.core._
import scala.collection.mutable

/** Vertical merge for columnar components (§4.5.3): first merge the primary
  * keys from all input components, recording the winning component sequence;
  * then replay each column through that sequence, one column at a time, so
  * at any moment only one column per input component is being decoded
  * (memory regions = #components, not #components × #columns).
  *
  * Output is produced in bounded batches so page/leaf cutting in the writers
  * works exactly as in the flush path.
  */
object VerticalMerge {
  private val BatchSize = 4096

  /** One input component's chunks, read through a tiny LRU so that pass
    * B's per-column sweeps reuse the chunks pass A decoded.
    */
  private final class ViewSource(val h: ColumnarHandle) {
    /** Live records per chunk, recorded as chunks are read (pass A reads
      * every chunk), for pass B's skipping.
      */
    val live = new Array[Int](h.chunks.length)
    private val lru = new java.util.LinkedHashMap[Int, ColumnarChunk](8, 0.75f, true) {
      override def removeEldestEntry(e: java.util.Map.Entry[Int, ColumnarChunk]): Boolean = size() > 4
    }
    def chunk(i: Int): ColumnarChunk = {
      val cached = lru.get(i)
      if (cached != null) return cached
      val c = h.chunk(i)
      live(i) = PkChunk.rank(c.anti, c.anti.length)
      lru.put(i, c)
      c
    }
  }

  /** Forward reader of one column across a component's chunks, replaying the
    * taken/skip flags recorded by the key-merge pass.
    */
  private final class ColStream(src: ViewSource, meta: ColumnMeta, flags: Array[Boolean]) {
    private val chunkCounts = src.live
    private var flagPos = 0
    private var chunkIdx = 0
    private var consumed = 0
    private var reader: ColumnChunkReader = _

    private def ensureChunk(): Unit = {
      while (chunkIdx < chunkCounts.length &&
             (chunkCounts(chunkIdx) == 0 || consumed >= chunkCounts(chunkIdx))) {
        chunkIdx += 1; consumed = 0; reader = null
      }
      if (reader == null && chunkIdx < chunkCounts.length)
        reader = src.chunk(chunkIdx).reader(meta)
    }

    private def step(n: Int): Unit = { // skip n records across chunk boundaries
      var left = n
      while (left > 0) {
        ensureChunk()
        val avail = chunkCounts(chunkIdx) - consumed
        val take = math.min(avail, left)
        reader.skipRecords(take)
        consumed += take; left -= take
      }
    }

    def nextTaken(): Shape = {
      var skips = 0
      while (!flags(flagPos)) { skips += 1; flagPos += 1 }
      flagPos += 1
      if (skips > 0) step(skips)
      ensureChunk()
      consumed += 1
      reader.nextRecordShape()
    }
  }

  private def boxToJValue(v: AnyRef): JValue = v match {
    case null                 => null
    case l: java.lang.Long    => JLong(l)
    case d: java.lang.Double  => JDouble(d)
    case s: String            => JString(s)
    case b: java.lang.Boolean => JBool(b)
    case other                => sys.error(s"unexpected boxed value $other")
  }

  private def replay(col: Int, s: Shape, sink: ColumnSink, depth: Int): Unit = s match {
    case SLeaf(d, v)  => sink.entry(col, d, boxToJValue(v))
    case SArr(items) =>
      items.foreach(replay(col, _, sink, depth + 1))
      sink.delimiter(col, depth)
  }

  def run(ds: LsmDataset, group: List[ComponentHandle], dropAnti: Boolean,
          dataPath: java.io.File, metaPath: java.io.File): ComponentHandle = {
    val sources = group.toArray.map { case h: ColumnarHandle => new ViewSource(h) }
    val nComps = sources.length

    // ---------------- pass A: merge primary keys, record winner sequence
    val outKeys = new mutable.ArrayBuffer[Long]()
    val outAnti = new mutable.ArrayBuffer[Boolean]()
    val outComp = new mutable.ArrayBuffer[Int]()       // for record outputs
    val flags = Array.fill(nComps)(new mutable.ArrayBuffer[Boolean]())
    // Keys only, through each source's LRU: pass B then finds small
    // components' chunks still cached.
    val cursors: Array[CompCursor] =
      sources.map(s => new ColumnarCursor(s.h, Array.empty, null, s.chunk))
    val keyMerge = new Reconciler(cursors, group.map(_.seq).toArray)
    while (keyMerge.next()) {
      val wi = keyMerge.winner
      val winAnti = cursors(wi).isAntimatter
      if (!winAnti) flags(wi) += true
      var j = 0
      while (j < keyMerge.numShadowed) {
        val li = keyMerge.shadowed(j)
        if (!cursors(li).isAntimatter) flags(li) += false
        j += 1
      }
      if (!winAnti || !dropAnti) {
        outKeys += keyMerge.key; outAnti += winAnti
        if (!winAnti) outComp += wi
      }
    }

    // ---------------- pass B: replay columns batch-by-batch, column-major
    val cols = ds.schema.columns.toArray
    val streams: Array[Array[ColStream]] = Array.tabulate(nComps) { c =>
      val fl = flags(c).toArray
      cols.map(m => new ColStream(sources(c), m, fl))
    }

    val writer = ColumnarWriter(ds.layout, ds.schema, ds.dict, ds.config)

    var pos = 0
    var recGlobal = 0 // index into outComp of the batch's first record
    while (pos < outKeys.length) {
      val end = math.min(pos + BatchSize, outKeys.length)
      val nRecs = (pos until end).count(i => !outAnti(i))
      val recComp = Array.tabulate(nRecs)(i => outComp(recGlobal + i))
      recGlobal += nRecs
      // column-major: fetch each column's shapes for the batch
      val colShapes = Array.ofDim[Shape](cols.length, nRecs)
      var ci = 0
      while (ci < cols.length) {
        var ri = 0
        while (ri < nRecs) {
          colShapes(ci)(ri) = streams(recComp(ri))(ci).nextTaken()
          ri += 1
        }
        ci += 1
      }
      // record-major write into the target layout
      var ri = 0
      var oi = pos
      while (oi < end) {
        val anti = outAnti(oi)
        val feeder: ColumnSink => Unit =
          if (anti) null
          else {
            val r = ri
            (sink: ColumnSink) => {
              var c = 0
              while (c < cols.length) { replay(cols(c).columnId, colShapes(c)(r), sink, 0); c += 1 }
            }
          }
        writer.add(outKeys(oi), anti, feeder)
        if (!anti) ri += 1
        oi += 1
      }
      pos = end
    }

    writer.finish(dataPath, metaPath, ds.cache)
  }
}
