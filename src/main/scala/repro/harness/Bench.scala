package repro.harness

import repro.core._
import repro.datasets.Datasets
import repro.lsm._
import repro.query._
import scala.collection.concurrent.TrieMap

/** Shared benchmark harness: builds the five datasets in the four layouts
  * (cached per JVM; on-disk under BENCH_DIR), times ingestion, and times
  * queries. Scale is controlled with BENCH_N_<DATASET> env vars; defaults
  * target ≈20 MB of raw JSON per dataset (≈SF 0.1 of this substrate).
  */
object Bench {

  val root = new java.io.File(sys.env.getOrElse("BENCH_DIR", "target/bench"))

  /** One shared buffer cache, like the paper's system-wide 10 GB cache
    * (scaled: 4096 × 128 KB = 512 MB logical).
    */
  lazy val cache = new BufferCache(sys.env.getOrElse("BENCH_CACHE_PAGES", "4096").toInt)

  def config: LsmConfig = LsmConfig(
    memBudgetBytes = sys.env.getOrElse("BENCH_MEM_MB", "8").toLong << 20,
    bufferCachePages = cache.capacityPages)

  private val defaults = Map(
    "cell" -> 150000L, "sensors" -> 10000L, "tweet_1" -> 12000L,
    "wos" -> 8000L, "tweet_2" -> 20000L)

  def n(name: String): Long =
    sys.env.getOrElse(s"BENCH_N_${name.toUpperCase}", defaults(name).toString).toLong

  final case class Built(ds: LsmDataset, ingestSeconds: Double, nRecords: Long)

  private val built = TrieMap.empty[(String, String), Built]
  private val rawBytesCache = TrieMap.empty[String, Long]

  /** One warm-up ingest + query per layout so timed builds measure the
    * storage paths, not JIT compilation (cold-vs-warm differs by ~10x).
    */
  lazy val warmed: Unit = {
    for (l <- LayoutKind.all) {
      val ds = new LsmDataset("warm", freshDir(s"warm-${l.name}"), l,
        config.copy(memBudgetBytes = 512 * 1024), cache, txLog = new TxLog)
      Datasets.tweet1(1500, seed = 77).foreach(ds.upsert)
      ds.forceFullMerge()
      Engine.run(ds, repro.queries.Queries.tweetQ2Grouped, ExecMode.CodeGen)
      Engine.run(ds, repro.queries.Queries.tweetQ2Grouped, ExecMode.Interpreted)
      ds.components.foreach(_.delete())
    }
  }

  /** Total raw JSON bytes of the generated dataset (Table 1's "Size"). */
  def rawJsonBytes(name: String): Long =
    rawBytesCache.getOrElseUpdate(name,
      Datasets.byName(name, n(name)).map(_.render.getBytes("UTF-8").length.toLong).sum)

  private def freshDir(tag: String): java.io.File = {
    val d = new java.io.File(root, tag)
    if (d.exists()) { d.listFiles().foreach(_.delete()); d.delete() }
    d.mkdirs()
    d
  }

  /** Insert-only ingestion (Fig. 13a's first four datasets). The timed
    * build is the second of its dataset × layout: the first, deleted
    * untimed, carries the JIT compilation of the paths this dataset's shape
    * reaches, which otherwise lands on whichever build runs first in the JVM.
    */
  def insertOnly(name: String, layout: LayoutKind): Built =
    built.getOrElseUpdate((name, layout.name), {
      warmed
      val records = n(name)
      def build(tag: String): (LsmDataset, Double) = {
        val ds = new LsmDataset(name, freshDir(tag), layout, config, cache, txLog = new TxLog)
        System.gc() // the timed build does not pay for earlier builds' garbage
        val t0 = System.nanoTime()
        Datasets.byName(name, records).foreach(ds.upsert)
        ds.flush()
        (ds, (System.nanoTime() - t0) / 1e9)
      }
      build(s"$name-${layout.name}-warm")._1.components.foreach(_.delete())
      val (ds, secs) = build(s"$name-${layout.name}")
      Built(ds, secs, records)
    })

  /** tweet_2 with a PK index and a timestamp secondary index, then 50 %
    * uniform updates (§6.3.2's update-intensive workload).
    */
  def updateIntensive(layout: LayoutKind): Built =
    built.getOrElseUpdate(("tweet_2*", layout.name), {
      warmed
      val records = n("tweet_2")
      val ds = new LsmDataset("tweet_2u", freshDir(s"tweet2u-${layout.name}"), layout, config,
        cache, txLog = new TxLog, enablePkIndex = true)
      ds.secondaries += new SecondaryIndex("timestamp")
      val r = new java.util.Random(42)
      val t0 = System.nanoTime()
      Datasets.tweet2(records).foreach(ds.upsert)
      ds.flush()
      // 50% updates, uniformly distributed over previously ingested keys.
      val updates = Datasets.tweet2(records / 2, seed = 999).map { rec =>
        val key = math.abs(r.nextLong()) % records
        JObject(rec.fields.map { case ("id", _) => "id" -> JLong(key): (String, JValue)
                                 case kv => kv })
      }
      updates.foreach(ds.upsert)
      ds.flush()
      val secs = (System.nanoTime() - t0) / 1e9
      Built(ds, secs, records)
    })

  final case class Timed(seconds: Double, result: QueryResult,
                         logicalReads: Long, diskReads: Long)

  /** Median of `runs` after `warmup` warmups (the paper averages the last 5
    * of 6 runs; median additionally resists GC spikes at sub-second scale).
    * I/O counters are from the first (cold-ish) timed run.
    */
  def timeQuery(ds: LsmDataset, plan: PlanSpec, mode: ExecMode,
                warmup: Int = 1, runs: Int = 5): Timed = {
    (0 until warmup).foreach(_ => Engine.run(ds, plan, mode))
    var io: (Long, Long) = (0, 0)
    var result: QueryResult = null
    val times = (0 until runs).map { i =>
      val r0 = (cache.stats.logicalReads, cache.stats.diskReads)
      val t0 = System.nanoTime()
      result = Engine.run(ds, plan, mode)
      val t = (System.nanoTime() - t0) / 1e9
      if (i == 0) io = (cache.stats.logicalReads - r0._1, cache.stats.diskReads - r0._2)
      t
    }
    val sorted = times.sorted
    Timed(sorted(sorted.length / 2), result, io._1, io._2)
  }

  def mb(bytes: Long): String = f"${bytes / 1e6}%8.2f MB"
  def s(x: Double): String = f"$x%7.3f s"
}
