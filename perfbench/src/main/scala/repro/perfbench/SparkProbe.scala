package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.sparkds.LsmColumnarSource

/** Spark SQL over the DataSourceV2 path on the `scan_warm` AMAX directories
  * (traced runs only). These are reference numbers: the path is not steady
  * enough yet to carry an end-to-end metric.
  */
object SparkProbe {
  def run(a: Args, dirs: Seq[(String, java.io.File)], tr: Tracer): Seq[(String, Metric)] = {
    val scratch = new java.io.File(a.dataDir, "spark")
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", new java.io.File(scratch, "local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new java.io.File(scratch, "warehouse").getAbsolutePath)
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    try {
      val frames = dirs.map { case (n, d) => n -> spark.read.format(classOf[LsmColumnarSource].getName).load(d.getAbsolutePath) }
      val day = ScanWarm.SensorsDay
      def queries(): Unit = frames.foreach {
        case ("sensors", df) =>
          df.where(col("report_time") > day && col("report_time") < day + 24L * 3600 * 1000)
            .agg(max("battery"), count(lit(1))).collect()
        case (_, df) =>
          df.groupBy(col("users.name")).agg(max(length(col("text"))).as("a"))
            .orderBy(desc("a")).limit(10).collect()
      }
      queries() // warm-up: plans compiled, pages cached
      val times = (0 until 3).map { _ =>
        val r0 = LsmColumnarSource.io.logicalReads
        val t0 = System.nanoTime()
        tr.span("sparkds.query")(queries())
        ((System.nanoTime() - t0) / 1e9, LsmColumnarSource.io.logicalReads - r0)
      }
      Seq("sparkds.query_s" -> Metric(Stats.median(times.map(_._1)), "s"),
          "sparkds.partitions" -> Metric(frames.map(_._2.rdd.getNumPartitions).sum.toDouble, "count"),
          "sparkds.pages_read" -> Metric(times.head._2.toDouble, "pages"))
    } finally {
      spark.stop()
      Io.deleteTree(scratch)
    }
  }
}
