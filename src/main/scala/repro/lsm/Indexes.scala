package repro.lsm

import repro.core._
import scala.collection.mutable

/** Primary-key index (§4.6): a secondary index holding only PKs, consulted
  * before point lookups during ingestion so brand-new keys skip the primary
  * index entirely. Flushed runs are sorted key arrays; membership is a
  * binary search per run.
  */
final class PrimaryKeyIndex {
  private val memKeys = mutable.TreeSet.empty[Long]
  private val runs = mutable.ArrayBuffer.empty[Array[Long]]
  var lookups = 0L

  def insert(key: Long): Unit = memKeys += key
  def flush(): Unit = {
    if (memKeys.nonEmpty) { runs += memKeys.toArray; memKeys.clear() }
  }
  /** May the key exist in the dataset? (No false negatives.) */
  def mayContain(key: Long): Boolean = {
    lookups += 1
    memKeys.contains(key) || runs.exists(r => java.util.Arrays.binarySearch(r, key) >= 0)
  }
  /** Tiering merges collapse runs too. */
  def compact(): Unit = {
    if (runs.length > 1) {
      val all = runs.flatten.distinct.sorted.toArray
      runs.clear(); runs += all
    }
  }
  def sizeOnDisk: Long = runs.map(_.length.toLong * 8).sum
}

/** Secondary index on one scalar path (the tweet_2 `timestamp` index, §6).
  *
  * Entries are (value, pk, isAntimatter); updates insert an anti-matter
  * entry for the old value and a live entry for the new one (§4.6's
  * "clean out the old entry"). Range queries reconcile entries newest-run
  * first, then hand back the matching PKs *sorted* so the batched
  * point-lookup pass reads each column in a single forward sweep.
  */
final class SecondaryIndex(val path: String) {
  final case class Entry(value: Long, pk: Long, anti: Boolean)
  private val mem = mutable.ArrayBuffer.empty[Entry]
  private val runs = mutable.ArrayBuffer.empty[Array[Entry]] // newest last

  /** `path` split at its dots, once. */
  val segments: Seq[String] = path.split('.').toSeq

  def extract(rec: JObject): Option[Long] = {
    var cur: JValue = rec
    segments.foreach { seg =>
      cur match {
        case o: JObject => cur = o.get(seg).getOrElse(JNull)
        case _          => cur = JNull
      }
    }
    cur match { case JLong(v) => Some(v); case _ => None }
  }

  def insert(value: Long, pk: Long): Unit = mem += Entry(value, pk, anti = false)
  def delete(value: Long, pk: Long): Unit = mem += Entry(value, pk, anti = true)

  def flush(): Unit = {
    if (mem.nonEmpty) {
      runs += mem.sortBy(e => (e.value, e.pk)).toArray
      mem.clear()
    }
  }

  def compact(): Unit = {
    flush()
    if (runs.length > 1) {
      // Newest-entry-wins per (value, pk); anti-matter annihilates on full merge.
      val state = mutable.LinkedHashMap.empty[(Long, Long), Boolean]
      runs.foreach(_.foreach(e => state((e.value, e.pk)) = e.anti))
      val merged = state.collect { case ((v, pk), false) => Entry(v, pk, anti = false) }
        .toArray.sortBy(e => (e.value, e.pk))
      runs.clear(); runs += merged
    }
  }

  /** PKs whose indexed value lies in [lo, hi], sorted ascending (§4.6).
    * Each run is sorted by (value, pk), so a binary search finds its first
    * entry at or above `lo` and the sweep stops past `hi`; the unsorted
    * in-memory entries are scanned.
    */
  def rangeLookup(lo: Long, hi: Long): Array[Long] = {
    val state = mutable.HashMap.empty[(Long, Long), Boolean]
    // Oldest first; later entries overwrite.
    runs.foreach { run =>
      var i = firstAtLeast(run, lo)
      while (i < run.length && run(i).value <= hi) {
        val e = run(i)
        state((e.value, e.pk)) = e.anti
        i += 1
      }
    }
    mem.foreach { e => if (e.value >= lo && e.value <= hi) state((e.value, e.pk)) = e.anti }
    state.collect { case ((_, pk), false) => pk }.toArray.sorted
  }

  /** Index of the first entry of `run` whose value is ≥ `v` (run.length if none). */
  private def firstAtLeast(run: Array[Entry], v: Long): Int = {
    var lo = 0; var hi = run.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (run(mid).value < v) lo = mid + 1 else hi = mid
    }
    lo
  }

  def sizeOnDisk: Long = runs.map(_.length.toLong * 17).sum
}
