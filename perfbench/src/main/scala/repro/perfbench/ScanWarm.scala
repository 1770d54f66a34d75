package repro.perfbench

import repro.core._
import repro.datasets.Datasets
import repro.lsm._
import repro.queries.Queries
import repro.query._
import scala.collection.mutable

/** `scan_warm`: the Table-2 queries (Appendix A) over `cell`, `sensors`,
  * `tweet_1` and `wos` on all four layouts with the CodeGen engine, one
  * client in a closed loop. The buffer cache holds every page, so after the
  * cold round no page is read from disk. Each layout's round also asks
  * `COUNT(*) WHERE duration >= 1200` on `cell`, which matches no record.
  */
object ScanWarm {
  /** A sixth of the repository's default bench scale, so that a round takes
    * about a second and a run holds a dozen rounds.
    */
  val Sizes = Seq("cell" -> 25000, "sensors" -> 1700, "tweet_1" -> 2000, "wos" -> 1350)
  val CachePages = 16384
  /** 4 rounds time 4 x 56 answered queries, so at least ten timings lie
    * beyond the 95th percentile.
    */
  val MinRounds = 4
  val SensorsDay = 1556400000000L + 1000L * 3600 // the day Queries.forDataset uses for sensors Q4

  val emptyCount: PlanSpec = PlanSpec(
    List(FilterOp(Cmp(">=", Expr.path("t.duration"), Lit(JLong(1200))))),
    group = Some(GroupSpec(Nil, Seq(Agg("count", null, "cnt")))))

  def records(name: String, n: Int, seed: Long): Array[JObject] = (name match {
    case "cell"    => Datasets.cell(n, seed = 101 + seed)
    case "sensors" => Datasets.sensors(n, seed = 202 + seed)
    case "tweet_1" => Datasets.tweet1(n, seed = 303 + seed)
    case "wos"     => Datasets.wos(n, seed = 505 + seed)
  }).toArray

  final case class Op(layout: LayoutKind, dataset: String, query: String, ds: LsmDataset,
                      plan: PlanSpec, want: Expected)

  def queries(name: String): Seq[(String, PlanSpec)] =
    Queries.forDataset(name) ++ (if (name == "cell") Seq("Qempty" -> emptyCount) else Nil)

  def run(a: Args): RunResult = {
    val root = new java.io.File(a.dataDir, "scan_warm")
    val cache = new BufferCache(CachePages)
    val tr = new Tracer(a.trace)
    val recs = Sizes.map { case (n, k) => n -> records(n, k, a.seed) }
    val answers = recs.map { case (n, rs) => n -> Reference.scanAnswers(n, rs.iterator, SensorsDay) }.toMap
    val ops = for (layout <- LayoutKind.all; (name, rs) <- recs) yield {
      val ds = new LsmDataset(name, Io.freshDir(root, s"$name-${layout.name}"), layout, LsmConfig(),
        cache, txLog = new TxLog)
      rs.foreach(ds.upsert)
      ds.flush()
      queries(name).map { case (q, plan) => Op(layout, name, q, ds, plan, answers(name)(q)) }
    }
    val round = ops.flatten
    val datasets = round.map(_.ds).distinct
    val written = cache.stats.diskBytesWritten
    val problems = mutable.LinkedHashSet.empty[String]

    /** One pass over every op; returns each op's latency in ns, or -1 where
      * it hit the known fault.
      */
    def pass(): Array[Long] =
      round.map { op =>
        val id = tr.begin()
        val t0 = System.nanoTime()
        val res = Engine.run(op.ds, op.plan, ExecMode.CodeGen)
        val t1 = System.nanoTime()
        tr.end(id, s"query.run.${op.layout.name}")
        Checks.answer(res, op.want) match {
          case Ok            => t1 - t0
          case KnownFault(_) => -1L
          case Wrong(msg)    => problems += s"${op.layout.name}/${op.dataset} ${op.query}: $msg"; t1 - t0
        }
      }.toArray

    Io.log(s"scan_warm: ${round.length} queries per round over ${datasets.length} datasets; cold round, warm-up round")
    cache.stats.reset()
    val faultsPerRound = pass().count(_ < 0)
    val coldDiskReads = cache.stats.diskReads
    pass()
    a.clock.setupDone()

    val timings = new RoundTimings
    val logical = mutable.ArrayBuffer.empty[Long]
    var warmDiskReads = 0L
    val t0 = System.nanoTime()
    while (timings.rounds < MinRounds || (System.nanoTime() - t0) / 1e9 < a.seconds) {
      tr.clear()
      Io.settle()
      cache.stats.reset()
      val row = pass()
      val f = row.count(_ < 0)
      if (f != faultsPerRound) problems += s"known faults per round changed: $f vs $faultsPerRound"
      timings += row
      logical += cache.stats.logicalReads
      warmDiskReads += cache.stats.diskReads
      Io.log(f"scan_warm round ${timings.rounds}: ${row.filter(_ >= 0).sum / 1e9}%.3f s")
    }
    if (logical.distinct.length != 1) problems += s"logical reads differ between rounds: ${logical.distinct}"
    if (warmDiskReads != 0) Io.log(s"note: $warmDiskReads pages read from disk after the cold round")
    val okPerRound = round.length - faultsPerRound
    val opsPerS = okPerRound / timings.typicalRoundSeconds
    val heap = Io.heapLiveMb(datasets)

    val metrics =
      if (!a.trace) {
        Seq("ops_per_s" -> Metric(opsPerS, "ops/s"),
            "latency_p50_ms" -> Metric(timings.percentileMs(0.5), "ms"),
            "latency_p95_ms" -> Metric(timings.percentileMs(0.95), "ms"),
            "pages_read" -> Metric(logical.head.toDouble, "pages"),
            "disk_reads" -> Metric(coldDiskReads.toDouble, "pages"),
            "disk_bytes" -> Metric(datasets.map(_.sizeOnDisk).sum.toDouble, "bytes"),
            "bytes_written" -> Metric(written.toDouble, "bytes"),
            "heap_live_mb" -> Metric(heap, "MB"))
      } else {
        val m = Seq("bench.traced_ops_per_s" -> Metric(opsPerS, "ops/s")) ++ layerProbes(round, tr) ++
          SparkProbe.run(a, recs.map(_._1).filter(Set("sensors", "tweet_1")).map(n =>
            n -> datasets.find(d => d.name == n && d.layout == LayoutKind.Amax).get.dir), tr)
        a.writeTrace(tr)
        m
      }
    Io.deleteTree(root)
    val rounds = timings.rounds
    RunResult(rounds.toLong * round.length, rounds.toLong * faultsPerRound, problems.toSeq, metrics)
  }

  /** Splits each query's time into reconciliation (keys-only scan), column
    * decode (projected scan minus reconciliation), operators (the plan
    * without ORDER BY/LIMIT minus the projected scan) and the top-k finish
    * (the full plan minus its grouped form). Every call is a span; values
    * are means over three passes.
    */
  private def layerProbes(round: Seq[Op], tr: Tracer): Seq[(String, Metric)] = {
    val Passes = 3
    var scanned, pruned, groups = 0L
    for (p <- 0 until Passes; op <- round) {
      val l = op.layout.name
      val proj = Engine.neededColumns(op.ds, op.plan)
      val zone = Engine.zonePredicate(op.ds, op.plan)
      tr.span(s"lsm.reconcile.$l") {
        op.ds.scan(Array.emptyIntArray, zone).foreach { t =>
          if (p == 0) { scanned += 1; if (t.pruned) pruned += 1 }
        }
      }
      tr.span(s"lsm.projected_scan.$l") {
        op.ds.scan(proj, zone).foreach { t =>
          if (!t.pruned && t.shapes() == null) t.record()
        }
      }
      val grouped = op.plan.copy(orderBy = None, limit = None)
      val g = tr.span(s"query.grouped.$l")(Engine.run(op.ds, grouped, ExecMode.CodeGen))
      if (p == 0 && grouped.group.exists(_.keys.nonEmpty)) groups += g.rows.length
      if (op.plan.orderBy.nonEmpty) {
        tr.span("query.grouped_for_topk")(Engine.run(op.ds, grouped, ExecMode.CodeGen))
        tr.span("query.topk_plan")(Engine.run(op.ds, op.plan, ExecMode.CodeGen))
      }
    }
    def s(n: String) = tr.seconds(n) / Passes
    LayoutKind.all.flatMap { layout =>
      val l = layout.name
      Seq(s"lsm.reconcile_s.$l" -> Metric(s(s"lsm.reconcile.$l"), "s"),
          s"lsm.column_decode_s.$l" -> Metric(s(s"lsm.projected_scan.$l") - s(s"lsm.reconcile.$l"), "s"),
          s"query.operators_s.$l" -> Metric(s(s"query.grouped.$l") - s(s"lsm.projected_scan.$l"), "s"))
    } ++ Seq(
      "query.topk_s" -> Metric(s("query.topk_plan") - s("query.grouped_for_topk"), "s"),
      "lsm.tuples_scanned" -> Metric(scanned.toDouble, "count"),
      "lsm.tuples_pruned" -> Metric(pruned.toDouble, "count"),
      "query.groups" -> Metric(groups.toDouble, "count"))
  }
}
