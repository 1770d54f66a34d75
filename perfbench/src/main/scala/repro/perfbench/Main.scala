package repro.perfbench

import java.lang.management.ManagementFactory

/** Set-up clock: from the JVM's start to the first timed operation. */
final class Clock {
  private val mainNanos = System.nanoTime()
  private val uptimeAtMainMs = ManagementFactory.getRuntimeMXBean.getUptime
  private var setup = -1.0
  def setupDone(): Unit =
    if (setup < 0) setup = uptimeAtMainMs / 1e3 + (System.nanoTime() - mainNanos) / 1e9
  def setupSeconds: Double = setup
}

final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                      dataDir: java.io.File, traceDir: java.io.File, clock: Clock) {
  /** Timed repetitions run until `seconds` have passed, and at least this many. */
  val minReps = 3
  def writeTrace(tr: Tracer): Unit = {
    val f = new java.io.File(traceDir, s"$workload-seed$seed.tsv")
    tr.write(f)
    Io.log(s"spans written to $f")
  }
}

/** Entry point: `--workload <ingest|scan_warm|lookup_cold> --seed <n>
  * --seconds <s> --trace <0|1> --data <dir> --traces <dir>`. Progress goes
  * to stderr; the one result line goes to stdout.
  */
object Main {
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "ops_per_s" -> "ops/s", "latency_p50_ms" -> "ms", "latency_p95_ms" -> "ms",
    "pages_read" -> "pages", "disk_reads" -> "pages", "disk_bytes" -> "bytes",
    "bytes_written" -> "bytes", "heap_live_mb" -> "MB")

  private val layouts = repro.lsm.LayoutKind.all.map(_.name)
  val PerLayer: Seq[(String, String)] =
    Seq("bench.traced_ops_per_s" -> "ops/s") ++
    // ingest
    layouts.map(l => s"lsm.ingest_s.$l" -> "s") ++
    Seq("lsm.insert_s", "lsm.update_s", "lsm.delete_s", "lsm.flush_s").map(_ -> "s") ++
    Seq("lsm.flushes" -> "count", "lsm.merge_s" -> "s", "lsm.merges" -> "count",
        "lsm.point_lookups" -> "count", "lsm.pk_index_probes" -> "count", "lsm.pages_written" -> "pages",
        "core.schema_observe_s" -> "s", "core.stripe_s" -> "s", "encoding.compress_s" -> "s",
        "encoding.compress_bytes_in" -> "bytes", "encoding.compress_bytes_out" -> "bytes") ++
    // scan_warm
    layouts.map(l => s"lsm.reconcile_s.$l" -> "s") ++
    layouts.map(l => s"lsm.column_decode_s.$l" -> "s") ++
    layouts.map(l => s"query.operators_s.$l" -> "s") ++
    Seq("query.topk_s" -> "s", "lsm.tuples_scanned" -> "count", "lsm.tuples_pruned" -> "count",
        "query.groups" -> "count", "sparkds.query_s" -> "s", "sparkds.partitions" -> "count",
        "sparkds.pages_read" -> "pages") ++
    // lookup_cold
    Seq("lsm.index_range_s" -> "s", "lsm.lookup_keys_s" -> "s", "lsm.lookup_columns_s" -> "s",
        "encoding.decompress_s" -> "s", "encoding.decompress_bytes" -> "bytes",
        "lsm.cache_hit_ratio" -> "ratio", "lsm.logical_reads" -> "pages", "lsm.disk_bytes_read" -> "bytes")

  def main(argv: Array[String]): Unit = {
    val clock = new Clock
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val a = Args(kv("workload"), kv("seed").toLong, kv("seconds").toDouble, kv("trace") == "1",
      new java.io.File(kv("data")), new java.io.File(kv("traces")), clock)
    val r = a.workload match {
      case "ingest"      => Ingest.run(a)
      case "scan_warm"   => ScanWarm.run(a)
      case "lookup_cold" => LookupCold.run(a)
      case other         => sys.error(s"unknown workload $other")
    }
    r.problems.foreach(p => Io.log(s"WRONG: $p"))
    val measured = (if (a.trace) r.metrics else r.metrics :+ ("setup_s" -> Metric(clock.setupSeconds, "s"))).toMap
    val names = if (a.trace) PerLayer else EndToEnd
    val unknown = measured.keySet -- names.map(_._1)
    require(unknown.isEmpty, s"metrics missing from the published list: $unknown")
    // A traced run reports every per-layer metric; layers this workload does
    // not exercise read 0.
    val metrics = names.map { case (n, unit) =>
      val m = measured.getOrElse(n, Metric(0.0, unit))
      require(m.unit == unit && !m.value.isNaN && !m.value.isInfinite, s"bad metric $n: $m")
      n -> m
    }
    val body = metrics.map { case (n, m) => s""""$n": {"value": ${m.value}, "unit": "${m.unit}"}""" }
    println(s"""{"correct": ${r.problems.isEmpty}, "attempted": ${r.attempted}, "failed": ${r.failed}, """ +
      s""""metrics": {${body.mkString(", ")}}}""")
    System.out.flush()
    // Spark (traced scan_warm) leaves non-daemon threads behind.
    System.exit(0)
  }
}
