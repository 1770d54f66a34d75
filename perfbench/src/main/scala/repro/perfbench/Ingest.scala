package repro.perfbench

import repro.core._
import repro.datasets.Datasets
import repro.encoding.PageCompressor
import repro.lsm._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** `ingest`: the write path on all four layouts. Insert-only `cell`, then
  * `tweet_2` with a PK index and a `timestamp` secondary index, 50 % uniform
  * updates and a few percent deletes. The memory budget is small enough that
  * the tiering policy (ratio 1.2, max 5 components) merges on every layout.
  */
object Ingest {
  val NCell = 15000
  val NTweet = 4000
  val NUpdates = NTweet / 2
  val NDeletes = NTweet / 25
  val MemBudget = 256L * 1024
  val CachePages = 1024
  val TsBase = 1600000000000L
  val DigestFields: Map[String, Seq[Seq[String]]] = Map(
    "cell" -> Seq(Seq("caller"), Seq("duration"), Seq("signal")),
    "tweet_2" -> Seq(Seq("timestamp"), Seq("users", "name"), Seq("text"), Seq("retweet_count")))

  final case class Ops(cell: Array[JObject], tweets: Array[JObject], updates: Array[JObject],
                       deletes: Array[Long]) {
    def count: Long = cell.length.toLong + tweets.length + updates.length + deletes.length
  }

  private def withFields(r: JObject, set: Map[String, JValue]): JObject =
    JObject(r.fields.map { case (k, v) => k -> set.getOrElse(k, v) })

  /** The op sequence, a function of the seed alone. Updates carry new,
    * later timestamps, so index upkeep has to retire the old entry.
    */
  def ops(seed: Long): Ops = {
    val (tweets, updates) = tweetsAndUpdates(NTweet, NUpdates, seed)
    val rnd = new java.util.Random(seed)
    val deletes = Array.fill(NDeletes)(rnd.nextInt(NTweet).toLong)
    Ops(Datasets.cell(NCell, seed = 1000 + seed).toArray, tweets, updates, deletes)
  }

  /** `n` tweet_2 records, then `nUpdates` uniform updates of their keys. */
  def tweetsAndUpdates(n: Int, nUpdates: Int, seed: Long): (Array[JObject], Array[JObject]) = {
    val rnd = new java.util.Random(seed * 31 + 7)
    val tweets = Datasets.tweet2(n, seed = 2000 + seed).toArray
    val updates = Datasets.tweet2(nUpdates, seed = 3000 + seed).zipWithIndex.map { case (r, i) =>
      withFields(r, Map("id" -> JLong(rnd.nextInt(n).toLong), "timestamp" -> JLong(TsBase + n + i)))
    }.toArray
    (tweets, updates)
  }

  /** Newest version per key of `recs`, applied in order. */
  def newest(recs: Iterable[JObject]): java.util.TreeMap[Long, JObject] = {
    val m = new java.util.TreeMap[Long, JObject]()
    recs.foreach(r => m.put(Reference.field(r, "id").asInstanceOf[JLong].v, r))
    m
  }

  /** Newest version per key after the whole op sequence. */
  def model(o: Ops): (java.util.TreeMap[Long, JObject], java.util.TreeMap[Long, JObject]) = {
    val tw = newest(o.tweets ++ o.updates)
    o.deletes.foreach(k => tw.remove(k))
    (newest(o.cell), tw)
  }

  final case class Rep(seconds: Double, cell: Seq[LsmDataset], tweets: Seq[LsmDataset], cache: BufferCache) {
    def all: Seq[LsmDataset] = cell ++ tweets
    def counts: Seq[Long] = Seq(cache.stats.logicalReads, cache.stats.diskReads,
      all.map(_.sizeOnDisk).sum, cache.stats.diskBytesWritten)
  }

  private def config = LsmConfig(memBudgetBytes = MemBudget, bufferCachePages = CachePages)

  /** The client sends its calls in batches of this many, and each batch goes
    * to all four layouts in turn; a batch is one latency sample. One call
    * into a memory component takes well under a microsecond, close to the
    * cost of reading the clock twice, and a sample that spans the four
    * layouts has one cost per phase instead of a cluster per layout, so its
    * percentiles do not sit on the edge between two clusters. Small batches
    * put some 40 samples of each pass beyond the 95th percentile, most of
    * them updates, instead of the pass's few flushes and merges.
    */
  val Batch = 25

  /** One pass of the op sequence over fresh datasets in every layout;
    * appends each sample's latency (ns) to `samples`, in the same order
    * every pass: the batches of each phase, and each closing flush.
    */
  def rep(o: Ops, root: java.io.File, tr: Tracer, samples: LongBuf): Rep = {
    val cache = new BufferCache(CachePages)
    val layouts = LayoutKind.all
    val cells = layouts.map(l =>
      new LsmDataset("cell", Io.freshDir(root, s"cell-${l.name}"), l, config, cache, txLog = new TxLog))
    val tweets = layouts.map { l =>
      val t = new LsmDataset("tweet_2", Io.freshDir(root, s"tweet_2-${l.name}"), l, config, cache,
        txLog = new TxLog, enablePkIndex = true)
      t.secondaries += new SecondaryIndex("timestamp")
      t
    }

    def call(ds: LsmDataset, kind: String)(f: => Unit): Unit = {
      val f0 = ds.numFlushes; val m0 = ds.numMerges
      val id = tr.begin()
      f
      if (tr.enabled)
        tr.end(id, if (ds.numMerges != m0) "lsm.merge" else if (ds.numFlushes != f0) "lsm.flush" else kind)
    }
    /** One latency sample: `f` on each layout's dataset, each under its layout's span. */
    def sample(dss: Seq[LsmDataset])(f: LsmDataset => Unit): Unit = {
      val t0 = System.nanoTime()
      dss.foreach { ds =>
        val span = tr.begin()
        f(ds)
        tr.end(span, s"lsm.ingest.${ds.layout.name}")
      }
      samples += System.nanoTime() - t0
    }
    def batches[A](dss: Seq[LsmDataset], items: Array[A], kind: String)(f: (LsmDataset, A) => Unit): Unit =
      items.grouped(Batch).foreach(b => sample(dss)(ds => b.foreach(x => call(ds, kind)(f(ds, x)))))

    val t0 = System.nanoTime()
    batches(cells, o.cell, "lsm.insert")(_.upsert(_))
    sample(cells)(c => call(c, "lsm.flush")(c.flush()))
    batches(tweets, o.tweets, "lsm.insert")(_.upsert(_))
    batches(tweets, o.updates, "lsm.update")(_.upsert(_))
    batches(tweets, o.deletes, "lsm.delete")(_.delete(_))
    sample(tweets)(t => call(t, "lsm.flush")(t.flush()))
    Rep((System.nanoTime() - t0) / 1e9, cells, tweets, cache)
  }

  /** Reconciled state, digests and index ranges of one finished pass against the model. */
  def check(o: Ops, r: Rep, seed: Long): Seq[String] = {
    val (cellModel, tweetModel) = model(o)
    val problems = mutable.ArrayBuffer.empty[String]
    val expectLive = NTweet - o.deletes.distinct.length
    if (tweetModel.size != expectLive) problems += s"model holds ${tweetModel.size} tweets, want $expectLive"
    for ((ds, m, name) <- r.cell.map((_, cellModel, "cell")) ++ r.tweets.map((_, tweetModel, "tweet_2"))) {
      val fields = DigestFields(name)
      val got = Checks.digest(ds.scan().map(t => (t.key, t.record())), fields)
      val want = Checks.digest(m.asScala.iterator, fields)
      if (got != want) {
        val keys = ds.scan(Array.emptyIntArray).map(_.key).toArray
        val detail = Checks.sameKeys(keys, m.asScala.keys.toArray)
          .getOrElse("same keys, different field values")
        problems += s"${ds.layout.name}/$name reconciled state differs from the model: $detail"
      }
    }
    // Secondary-index ranges against the model's timestamps.
    val byTs = tweetModel.asScala.toArray.map { case (k, rec) => (Reference.field(rec, "timestamp").asInstanceOf[JLong].v, k) }
    val rnd = new java.util.Random(seed ^ 0x5eed)
    val domain = NTweet + NUpdates
    val ranges = Seq.fill(20) {
      val lo = TsBase + rnd.nextInt(domain)
      (lo, lo + rnd.nextInt(400))
    }
    for (t <- r.tweets; (lo, hi) <- ranges) {
      val want = byTs.collect { case (ts, k) if ts >= lo && ts <= hi => k }.sorted
      Checks.sameKeys(t.secondaries.head.rangeLookup(lo, hi), want)
        .foreach(p => problems += s"${t.layout.name} timestamp index [$lo,$hi]: $p")
    }
    problems.toSeq
  }

  private object NoSink extends ColumnSink {
    def entry(col: Int, defLevel: Int, value: JValue): Unit = ()
    def delimiter(col: Int, d: Int): Unit = ()
  }

  /** Standalone calls into `repro.core` and `repro.encoding` over the same
    * records and pages the pass produced (traced runs only).
    */
  private def layerProbes(o: Ops, last: Rep, tr: Tracer): Seq[(String, Metric)] = {
    val recs = (o.cell ++ o.tweets ++ o.updates).map(r => JObject(r.fields.filterNot(_._1 == "id")))
    val schema = new Schema
    tr.span("core.schema_observe")(recs.foreach(schema.observe))
    val striper = new Striper(schema)
    tr.span("core.stripe")(recs.foreach(r => striper.stripe(r, NoSink)))
    var in = 0L; var out = 0L
    last.all.flatMap(_.components).foreach { h =>
      val bytes = java.nio.file.Files.readAllBytes(h.file.path.toPath)
      val offs = h.file.pageOffsets
      val raw = (0 until h.file.numPages).map { i =>
        PageCompressor.decompress(java.util.Arrays.copyOfRange(bytes, offs(i).toInt, offs(i + 1).toInt))
      }
      tr.span("encoding.compress")(raw.foreach(p => out += PageCompressor.compress(p).length))
      in += raw.map(_.length.toLong).sum
    }
    Seq("core.schema_observe_s" -> Metric(tr.seconds("core.schema_observe"), "s"),
        "core.stripe_s" -> Metric(tr.seconds("core.stripe"), "s"),
        "encoding.compress_s" -> Metric(tr.seconds("encoding.compress"), "s"),
        "encoding.compress_bytes_in" -> Metric(in.toDouble, "bytes"),
        "encoding.compress_bytes_out" -> Metric(out.toDouble, "bytes"))
  }

  def run(a: Args): RunResult = {
    val root = new java.io.File(a.dataDir, "ingest")
    val o = ops(a.seed)
    val tr = new Tracer(a.trace)
    val samples = new LongBuf
    Io.log(s"ingest: ${o.count} ops per layout, two warm-up passes")
    rep(o, root, tr, samples)
    rep(o, root, tr, samples)
    a.clock.setupDone()
    val batches = new RoundTimings
    val counts = mutable.ArrayBuffer.empty[Seq[Long]]
    var last: Rep = null
    val t0 = System.nanoTime()
    while (batches.rounds < a.minReps || (System.nanoTime() - t0) / 1e9 < a.seconds) {
      tr.clear(); samples.clear()
      last = null // the previous pass's datasets are garbage from here on
      Io.settle()
      last = rep(o, root, tr, samples)
      batches += samples.toArray
      counts += last.counts
      Io.log(f"ingest rep ${batches.rounds}: ${last.seconds}%.3f s")
    }
    val problems = mutable.ArrayBuffer.empty[String]
    if (counts.distinct.length != 1) problems += s"page/byte counts differ between repetitions: ${counts.distinct}"
    problems ++= check(o, last, a.seed)
    val opsPerRep = o.count * LayoutKind.all.length
    val passes = batches.rounds
    val opsPerS = opsPerRep / batches.typicalRoundSeconds
    val metrics =
      if (!a.trace) {
        val Seq(logical, disk, size, written) = last.counts
        val (p50, p95) = (batches.percentileMs(0.5), batches.percentileMs(0.95))
        batches.clear() // grows with the number of passes; keep it out of the heap figure
        Seq("ops_per_s" -> Metric(opsPerS, "ops/s"),
            "latency_p50_ms" -> Metric(p50, "ms"),
            "latency_p95_ms" -> Metric(p95, "ms"),
            "pages_read" -> Metric(logical.toDouble, "pages"),
            "disk_reads" -> Metric(disk.toDouble, "pages"),
            "disk_bytes" -> Metric(size.toDouble, "bytes"),
            "bytes_written" -> Metric(written.toDouble, "bytes"),
            "heap_live_mb" -> Metric(Io.heapLiveMb(last), "MB"))
      } else {
        val perLayout = LayoutKind.all.map(l =>
          s"lsm.ingest_s.${l.name}" -> Metric(tr.seconds(s"lsm.ingest.${l.name}"), "s"))
        val spans = Seq("insert", "update", "delete", "flush", "merge").map(k =>
          s"lsm.${k}_s" -> Metric(tr.seconds(s"lsm.$k"), "s"))
        val ds = last.all
        val counts = Seq(
          "lsm.flushes" -> Metric(ds.map(_.numFlushes).sum.toDouble, "count"),
          "lsm.merges" -> Metric(ds.map(_.numMerges).sum.toDouble, "count"),
          "lsm.point_lookups" -> Metric(ds.map(_.pointLookupsDuringIngest).sum.toDouble, "count"),
          "lsm.pk_index_probes" -> Metric(ds.map(_.pkIndex.lookups).sum.toDouble, "count"),
          "lsm.pages_written" -> Metric(last.cache.stats.pagesWritten.toDouble, "pages"))
        val probes = layerProbes(o, last, tr)
        a.writeTrace(tr)
        Seq("bench.traced_ops_per_s" -> Metric(opsPerS, "ops/s")) ++ perLayout ++ spans ++ counts ++ probes
      }
    Io.deleteTree(root)
    RunResult(passes * opsPerRep, 0, problems.toSeq, metrics)
  }
}
