package repro.perfbench

import scala.collection.mutable

/** Order statistics over timing samples (linear interpolation between
  * closest ranks, as numpy's default percentile).
  */
object Stats {
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val s = xs.sorted
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)
}

/** Timings of the operations of a run, one row per round: the same
  * operations in the same order every round, a negative entry for an
  * operation that failed. The host's speed drifts by a tenth or more over
  * seconds, so no metric comes from one round: a round is timed as the sum
  * of each operation's median over the rounds, and latency percentiles are
  * taken over every timing of every round.
  */
final class RoundTimings {
  private val rows = mutable.ArrayBuffer.empty[Array[Long]]
  def rounds: Int = rows.length
  def +=(row: Array[Long]): Unit = {
    require(rows.isEmpty || rows.head.length == row.length, "rounds differ in length")
    rows += row
  }
  /** Seconds of a typical round: the sum over operations of their median timing. */
  def typicalRoundSeconds: Double =
    rows.head.indices.iterator.map(i => rows.map(_(i)).filter(_ >= 0).map(_.toDouble))
      .filter(_.nonEmpty).map(ts => Stats.median(ts.toSeq)).sum / 1e9
  /** Percentile over every timing of every round, in ms. */
  def percentileMs(p: Double): Double =
    Stats.percentile(rows.iterator.flatMap(_.iterator.filter(_ >= 0).map(_ / 1e6)).toSeq, p)
  def clear(): Unit = rows.clear()
}

/** Growable array of longs, so per-call samples and spans cost no boxing. */
final class LongBuf {
  private var a = new Array[Long](1024)
  var length = 0
  def +=(v: Long): Unit = {
    if (length == a.length) a = java.util.Arrays.copyOf(a, a.length * 2)
    a(length) = v; length += 1
  }
  def apply(i: Int): Long = a(i)
  def update(i: Int, v: Long): Unit = a(i) = v
  def clear(): Unit = length = 0
  def toArray: Array[Long] = java.util.Arrays.copyOf(a, length)
}

/** Spans recorded in the benchmark around calls into the program's layers.
  * Each span has a name, a start, an end and a parent; they are kept in
  * memory and written out when the run ends. A disabled tracer records
  * nothing and costs one branch per call site.
  */
final class Tracer(val enabled: Boolean) {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private val nameOf = new LongBuf
  private val parentOf = new LongBuf
  private val startOf = new LongBuf
  private val endOf = new LongBuf
  private var open: List[Int] = Nil

  private def nameId(n: String): Int = nameIds.getOrElseUpdate(n, { names += n; names.length - 1 })

  /** Opens a span whose name is given when it ends: an upsert only turns out
    * to be a flush or a merge afterwards.
    */
  def begin(): Int = {
    if (!enabled) return -1
    val id = startOf.length
    nameOf += -1
    parentOf += open.headOption.getOrElse(-1).toLong
    endOf += 0
    open = id :: open
    startOf += System.nanoTime()
    id
  }

  def end(id: Int, name: String): Unit = if (enabled) {
    endOf(id) = System.nanoTime()
    nameOf(id) = nameId(name)
    open = open.tail
  }

  def span[T](name: String)(f: => T): T =
    if (!enabled) f
    else {
      val id = begin()
      try f finally end(id, name)
    }

  /** Drops the spans recorded so far (metrics come from one repetition). */
  def clear(): Unit = {
    nameOf.clear(); parentOf.clear(); startOf.clear(); endOf.clear(); open = Nil
  }

  private def dur(i: Int): Long = endOf(i) - startOf(i)

  /** Total duration of the spans named `name`, in seconds. */
  def seconds(name: String): Double = {
    val n = nameIds.getOrElse(name, -1)
    var s = 0L
    var i = 0
    while (i < nameOf.length) { if (nameOf(i) == n) s += dur(i); i += 1 }
    s / 1e9
  }

  /** Writes one line per span: id, parent, name, start and end (ns). */
  def write(file: java.io.File): Unit = {
    file.getParentFile.mkdirs()
    val out = new java.io.PrintWriter(new java.io.BufferedWriter(new java.io.FileWriter(file), 1 << 16))
    try {
      out.println("id\tparent\tname\tstart_ns\tend_ns")
      var i = 0
      while (i < nameOf.length) {
        out.print(i); out.print('\t'); out.print(parentOf(i)); out.print('\t')
        out.print(names(nameOf(i).toInt)); out.print('\t')
        out.print(startOf(i)); out.print('\t'); out.println(endOf(i))
        i += 1
      }
    } finally out.close()
  }
}

/** A metric as printed: value plus unit. */
final case class Metric(value: Double, unit: String)

/** What one workload run reports. `failed` operations are those that hit a
  * known program fault (see README); `problems` are wrong answers.
  */
final case class RunResult(attempted: Long, failed: Long, problems: Seq[String],
                           metrics: Seq[(String, Metric)])

object Io {
  def deleteTree(f: java.io.File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(deleteTree))
    f.delete(): Unit
  }

  def freshDir(root: java.io.File, tag: String): java.io.File = {
    val d = new java.io.File(root, tag)
    deleteTree(d)
    d.mkdirs()
    d
  }

  /** A full collection between rounds, outside the timings: every round
    * starts from the same heap, so its young collections fall at the same
    * points, and no collection of earlier rounds' garbage lands inside it.
    */
  def settle(): Unit = System.gc()

  /** Heap in use after a full collection. */
  def heapLiveMb(keepAlive: AnyRef): Double = {
    System.gc(); System.gc()
    val used = java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    java.lang.ref.Reference.reachabilityFence(keepAlive)
    used / (1024.0 * 1024.0)
  }

  def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")
}
