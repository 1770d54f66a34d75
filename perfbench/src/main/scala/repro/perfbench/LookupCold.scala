package repro.perfbench

import repro.core._
import repro.encoding.PageCompressor
import repro.lsm._
import repro.query._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** `lookup_cold`: `tweet_2` built update-intensive on VB, APAX and AMAX.
  * Each operation is a secondary-index range lookup over a random timestamp
  * range, then a batched point lookup that projects a few columns; a
  * latency sample is one range looked up on the three layouts in turn. The
  * buffer cache is far smaller than the datasets and is emptied before
  * every lookup, so most page requests miss and every round reads the same
  * pages. The query engine is not involved.
  */
object LookupCold {
  val NTweet = 20000
  val NUpdates = NTweet / 2
  val CachePages = 32
  val RangesPerLayout = 80
  val RangeWidth = 100
  val Layouts = Seq(LayoutKind.VB, LayoutKind.Apax, LayoutKind.Amax)
  val Fields: Seq[Seq[String]] = Seq(Seq("text"), Seq("users", "name"), Seq("retweet_count"))

  private def countPlan(lo: Long, hi: Long) = PlanSpec(
    List(FilterOp(And(Cmp(">=", Expr.path("t.timestamp"), Lit(JLong(lo))),
                      Cmp("<=", Expr.path("t.timestamp"), Lit(JLong(hi)))))),
    group = Some(GroupSpec(Nil, Seq(Agg("count", null, "cnt")))))

  final case class Target(ds: LsmDataset, projection: Array[Int])

  def run(a: Args): RunResult = {
    val root = new java.io.File(a.dataDir, "lookup_cold")
    val cache = new BufferCache(CachePages)
    val tr = new Tracer(a.trace)
    val (tweets, updates) = Ingest.tweetsAndUpdates(NTweet, NUpdates, 4000 + a.seed)
    val targets = Layouts.map { layout =>
      val ds = new LsmDataset("tweet_2", Io.freshDir(root, s"tweet_2-${layout.name}"), layout, LsmConfig(),
        cache, txLog = new TxLog, enablePkIndex = true)
      ds.secondaries += new SecondaryIndex("timestamp")
      tweets.foreach(ds.upsert)
      ds.flush()
      updates.foreach(ds.upsert)
      ds.flush()
      Target(ds, Fields.flatMap(f => ds.schema.leavesUnderPath(f)).sorted.toArray)
    }
    val written = cache.stats.diskBytesWritten
    val model = Ingest.newest(tweets ++ updates)
    val byTs = model.asScala.toArray
      .map { case (k, r) => (Reference.field(r, "timestamp").asInstanceOf[JLong].v, k) }
      .sortBy(_._1)
    // Ranges over the timestamps the updates wrote: their keys are spread
    // uniformly over the key space, so a lookup touches pages all over the
    // datasets instead of one run of neighbouring keys.
    val rnd = new java.util.Random(a.seed)
    val ranges = Seq.fill(RangesPerLayout) {
      val lo = Ingest.TsBase + NTweet + rnd.nextInt(NUpdates - RangeWidth)
      (lo, lo + RangeWidth - 1)
    }
    def wanted(lo: Long, hi: Long): Seq[(Long, JObject)] = {
      val from = java.util.Arrays.binarySearch(byTs.map(_._1), lo) match { case i if i >= 0 => i; case i => -i - 1 }
      byTs.iterator.drop(from).takeWhile(_._1 <= hi).map(_._2).toSeq.sorted.map(k => k -> model.get(k))
    }
    val expected = ranges.map { case (lo, hi) => wanted(lo, hi) }
    val problems = mutable.LinkedHashSet.empty[String]

    /** One round: each range on VB, APAX and AMAX in turn, every lookup
      * from an empty cache. Returns, per range, the latency of its three
      * lookups together in ns: the layouts differ in cost, and a sample that
      * spans them has one cost per range instead of a cluster per layout, so
      * its percentiles do not sit on the edge between two clusters.
      */
    def round(): Array[Long] = {
      cache.stats.reset()
      ranges.zip(expected).map { case ((lo, hi), want) =>
        targets.map { t =>
          cache.clear()
          val op = tr.begin()
          val t0 = System.nanoTime()
          val keys = tr.span("lsm.index_range")(t.ds.secondaries.head.rangeLookup(lo, hi))
          val got = tr.span("lsm.batched_lookup")(t.ds.batchedLookup(keys, t.projection).toArray.toSeq)
          val t1 = System.nanoTime()
          tr.end(op, s"lookup.${t.ds.layout.name}")
          Checks.sameRecords(got, want, Fields)
            .foreach(p => problems += s"${t.ds.layout.name} range [$lo,$hi]: $p")
          t1 - t0
        }.sum
      }.toArray
    }

    Io.log(s"lookup_cold: ${ranges.length * targets.length} lookups per round, " +
      s"${targets.map(_.ds.components.map(_.file.numPages).sum).sum} data pages, cache $CachePages pages; two warm-up rounds")
    round()
    round()
    // Two independent paths to the same count: the index, and a filtered scan.
    for (t <- targets; ((lo, hi), want) <- ranges.zip(expected).take(3)) {
      val scan = Engine.run(t.ds, countPlan(lo, hi), ExecMode.CodeGen).rows.headOption.map(_.head)
      val idx = t.ds.secondaries.head.rangeLookup(lo, hi).length
      if (!scan.contains(JLong(idx)) || idx != want.length)
        problems += s"${t.ds.layout.name} [$lo,$hi]: index path $idx, scan ${scan.map(_.render)}, model ${want.length}"
    }
    a.clock.setupDone()

    val timings = new RoundTimings
    val counts = mutable.ArrayBuffer.empty[(Long, Long, Long)]
    val t0 = System.nanoTime()
    while (timings.rounds < a.minReps || (System.nanoTime() - t0) / 1e9 < a.seconds) {
      tr.clear()
      Io.settle()
      val row = round()
      timings += row
      counts += ((cache.stats.logicalReads, cache.stats.diskReads, cache.stats.diskBytesRead))
      Io.log(f"lookup_cold round ${timings.rounds}: ${row.sum / 1e9}%.3f s")
    }
    if (counts.distinct.length != 1) problems += s"page counts differ between rounds: ${counts.distinct}"
    val (logical, disk, bytesRead) = counts.head
    val opsPerRound = ranges.length * targets.length
    val opsPerS = opsPerRound / timings.typicalRoundSeconds
    val heap = Io.heapLiveMb(targets)

    val metrics =
      if (!a.trace) {
        Seq("ops_per_s" -> Metric(opsPerS, "ops/s"),
            "latency_p50_ms" -> Metric(timings.percentileMs(0.5), "ms"),
            "latency_p95_ms" -> Metric(timings.percentileMs(0.95), "ms"),
            "pages_read" -> Metric(logical.toDouble, "pages"),
            "disk_reads" -> Metric(disk.toDouble, "pages"),
            "disk_bytes" -> Metric(targets.map(_.ds.sizeOnDisk).sum.toDouble, "bytes"),
            "bytes_written" -> Metric(written.toDouble, "bytes"),
            "heap_live_mb" -> Metric(heap, "MB"))
      } else {
        // Keys-only lookups over the same ranges, each from an empty cache.
        for (t <- targets; (lo, hi) <- ranges) {
          val keys = t.ds.secondaries.head.rangeLookup(lo, hi)
          cache.clear()
          tr.span("lsm.lookup_keys")(t.ds.batchedLookup(keys, Array.emptyIntArray).size)
        }
        // Snappy decompress cost per compressed byte, over every frame of the
        // datasets, applied to the bytes the round's misses fetched.
        var comp, raw = 0L
        for (t <- targets; h <- t.ds.components) {
          val bytes = java.nio.file.Files.readAllBytes(h.file.path.toPath)
          val offs = h.file.pageOffsets
          val frames = (0 until h.file.numPages).map(i => java.util.Arrays.copyOfRange(bytes, offs(i).toInt, offs(i + 1).toInt))
          tr.span("encoding.decompress")(frames.foreach(f => raw += PageCompressor.decompress(f).length))
          comp += frames.map(_.length.toLong).sum
        }
        val missShare = bytesRead.toDouble / comp
        val m = Seq(
          "bench.traced_ops_per_s" -> Metric(opsPerS, "ops/s"),
          "lsm.index_range_s" -> Metric(tr.seconds("lsm.index_range"), "s"),
          "lsm.lookup_keys_s" -> Metric(tr.seconds("lsm.lookup_keys"), "s"),
          "lsm.lookup_columns_s" -> Metric(tr.seconds("lsm.batched_lookup") - tr.seconds("lsm.lookup_keys"), "s"),
          "encoding.decompress_s" -> Metric(tr.seconds("encoding.decompress") * missShare, "s"),
          "encoding.decompress_bytes" -> Metric(raw * missShare, "bytes"),
          "lsm.cache_hit_ratio" -> Metric(1.0 - disk.toDouble / logical, "ratio"),
          "lsm.logical_reads" -> Metric(logical.toDouble, "pages"),
          "lsm.disk_bytes_read" -> Metric(bytesRead.toDouble, "bytes"))
        a.writeTrace(tr)
        m
      }
    Io.deleteTree(root)
    RunResult(timings.rounds.toLong * opsPerRound, 0, problems.toSeq, metrics)
  }
}
