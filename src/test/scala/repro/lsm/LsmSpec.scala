package repro.lsm

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.RoundTrip.normalize
import repro.datasets.Datasets
import repro.lsm.layout.AmaxLayout
import java.nio.file.Files

/** LSM engine integration: flush, tiering merge (vertical for columnar),
  * reconciliation, point lookups, secondary indexes — for all four layouts.
  */
class LsmSpec extends AnyFunSuite {

  private def tmpDir(): java.io.File =
    Files.createTempDirectory("lsmspec").toFile

  private def smallConfig = LsmConfig(
    pageSize = 8 * 1024,
    memBudgetBytes = 64 * 1024,
    amaxLeafRecords = 100,
    maxComponents = 3,
    bufferCachePages = 512)

  private def mkDataset(layout: LayoutKind, config: LsmConfig = smallConfig,
                        pkIndex: Boolean = false): LsmDataset =
    new LsmDataset(s"t-${layout.name}", tmpDir(), layout, config,
      new BufferCache(config.bufferCachePages), enablePkIndex = pkIndex)

  private def gamerRecord(i: Long): JObject = JObject.of(
    "id" -> JLong(i),
    "name" -> JString(s"gamer$i"),
    "score" -> JLong(i * 10),
    "games" -> JArray((0 until (i % 4).toInt).map(k =>
      JObject.of("title" -> JString(s"g${(i + k) % 7}"),
                 "consoles" -> JArray(Vector(JString("PC")))): JValue).toVector),
  )

  for (layout <- LayoutKind.all) {

    test(s"[${layout.name}] ingest + scan returns every record reconciled") {
      val ds = mkDataset(layout)
      val recs = (0L until 500L).map(gamerRecord)
      // Three on-disk components plus a live memory component.
      recs.zipWithIndex.foreach { case (r, i) =>
        ds.upsert(r)
        if (i == 150 || i == 300 || i == 420) ds.flush()
      }
      val got = ds.scan().map(_.record()).toVector
      assert(got.size == 500)
      assert(got.map(_.get("id").get).toSet == recs.map(_.get("id").get).toSet)
      // spot-check full content equality on a sample
      val byId = got.map(r => r.get("id").get -> r).toMap
      Seq(0L, 123L, 499L).foreach { i =>
        assert(normalize(byId(JLong(i))) == normalize(recs(i.toInt)))
      }
      assert(ds.numFlushes == 3, "must have flushed multiple components")
    }

    test(s"[${layout.name}] upsert newest-wins across components") {
      val ds = mkDataset(layout)
      (0L until 300L).map(gamerRecord).foreach(ds.upsert)
      ds.flush()
      // update every third record
      (0L until 300L by 3).foreach(i => ds.upsert(
        JObject.of("id" -> JLong(i), "name" -> JString(s"updated$i"))))
      val got = ds.scan().map(_.record()).toVector
      assert(got.size == 300)
      got.foreach { r =>
        val JLong(i) = r.get("id").get: @unchecked
        if (i % 3 == 0) assert(r.get("name").contains(JString(s"updated$i")))
        else assert(r.get("name").contains(JString(s"gamer$i")))
      }
    }

    test(s"[${layout.name}] delete adds anti-matter; merge annihilates") {
      val ds = mkDataset(layout)
      (0L until 200L).map(gamerRecord).foreach(ds.upsert)
      ds.flush()
      (0L until 200L by 2).foreach(ds.delete)
      assert(ds.scan().size == 100)
      ds.forceFullMerge()
      assert(ds.components.size == 1)
      assert(ds.components.head.meta.numAntimatter == 0, "full merge drops anti-matter")
      assert(ds.scan().size == 100)
      assert(ds.scan().map(_.key).forall(_ % 2 == 1))
    }

    test(s"[${layout.name}] point lookups: present, absent, deleted") {
      val ds = mkDataset(layout)
      (0L until 200L).map(gamerRecord).foreach(ds.upsert)
      ds.flush()
      ds.delete(42L)
      ds.flush()
      assert(ds.pointLookup(7L).exists(_.get("name").contains(JString("gamer7"))))
      assert(ds.pointLookup(4242L).isEmpty)
      assert(ds.pointLookup(42L).isEmpty, "deleted key resolves to anti-matter")
    }

    test(s"[${layout.name}] tiering merge keeps component count bounded") {
      val ds = mkDataset(layout)
      (0L until 3000L).map(gamerRecord).foreach(ds.upsert)
      ds.flush()
      assert(ds.components.size <= smallConfig.maxComponents + 1)
      assert(ds.numMerges > 0)
      assert(ds.scan().size == 3000)
    }

    test(s"[${layout.name}] schema evolves across flushes; old components read absent") {
      val ds = mkDataset(layout)
      (0L until 100L).foreach(i => ds.upsert(JObject.of("id" -> JLong(i), "a" -> JLong(i))))
      ds.flush()
      (100L until 200L).foreach(i => ds.upsert(
        JObject.of("id" -> JLong(i), "a" -> JLong(i), "b" -> JString("new"), "c" -> JObject.of("d" -> JBool(true)))))
      ds.flush()
      val got = ds.scan().map(_.record()).toVector
      assert(got.size == 200)
      val old = got.find(_.get("id").contains(JLong(5))).get
      assert(old.get("b").isEmpty)
      val nw = got.find(_.get("id").contains(JLong(150))).get
      assert(nw.get("b").contains(JString("new")))
      assert(nw.get("c").contains(JObject.of("d" -> JBool(true))))
    }

    test(s"[${layout.name}] batched sorted lookups match point lookups") {
      val ds = mkDataset(layout)
      (0L until 400L).map(gamerRecord).foreach(ds.upsert)
      ds.flush()
      (0L until 400L by 5).foreach(i => ds.upsert(
        JObject.of("id" -> JLong(i), "name" -> JString(s"v2-$i"))))
      ds.flush()
      ds.delete(77L)
      ds.flush()
      val keys = Array(0L, 5L, 7L, 77L, 123L, 399L, 9999L)
      val got = ds.batchedLookup(keys.sorted, null).toMap
      keys.foreach { k =>
        assert(got.get(k).map(normalize) == ds.pointLookup(k).map(normalize), s"key $k")
      }
    }

    test(s"[${layout.name}] batched lookups return the same record for a repeated key") {
      val ds = mkDataset(layout)
      (0L until 100L).map(gamerRecord).foreach(ds.upsert)
      ds.flush()
      val got = ds.batchedLookup(Array(5L, 5L, 7L, 7L, 7L, 99L, 99L), null).toSeq
      assert(got.map(_._1) == Seq(5L, 5L, 7L, 7L, 7L, 99L, 99L))
      got.foreach { case (k, r) => assert(r.get("name") == Some(JString(s"gamer$k")), s"key $k") }
    }

    test(s"[${layout.name}] lookups past anti-matter in the same page or leaf find the right record") {
      val ds = mkDataset(layout, smallConfig.copy(maxComponents = 10))
      (0L until 300L).map(gamerRecord).foreach(ds.upsert)
      ds.flush()
      // One component interleaving anti-matter with live versions: a live
      // record's column position is the number of live entries before it.
      (0L until 300L).foreach { i =>
        if (i % 3 == 0) ds.delete(i)
        else if (i % 3 == 1) ds.upsert(JObject.of("id" -> JLong(i), "name" -> JString(s"v2-$i")))
      }
      ds.flush()
      val keys = (0L until 300L).toArray
      val batched = ds.batchedLookup(keys, null).toMap
      keys.foreach { k =>
        val want = k % 3 match {
          case 0 => None
          case 1 => Some(JString(s"v2-$k"))
          case _ => Some(JString(s"gamer$k"))
        }
        assert(ds.pointLookup(k).flatMap(_.get("name")) == want, s"key $k")
        assert(batched.get(k).flatMap(_.get("name")) == want, s"key $k (batched)")
      }
    }

    test(s"[${layout.name}] secondary index maintains entries through updates") {
      val ds = mkDataset(layout, pkIndex = true)
      ds.secondaries += new SecondaryIndex("ts")
      (0L until 200L).foreach(i => ds.upsert(
        JObject.of("id" -> JLong(i), "ts" -> JLong(1000 + i), "v" -> JString("x" + i))))
      ds.flush()
      // move records 10..19 to new timestamp range
      (10L until 20L).foreach(i => ds.upsert(
        JObject.of("id" -> JLong(i), "ts" -> JLong(5000 + i), "v" -> JString("moved"))))
      ds.flush()
      val idx = ds.secondaries.head
      assert(idx.rangeLookup(1010, 1019).isEmpty, "old entries anti-mattered")
      assert(idx.rangeLookup(5010, 5019).toSeq == (10L until 20L).toSeq)
      val hits = ds.batchedLookup(idx.rangeLookup(5010, 5019), null).toSeq
      assert(hits.size == 10)
      assert(hits.forall(_._2.get("v").contains(JString("moved"))))
    }
  }

  // ---------------------------------------------------- layout-specific

  test("[apax] scan reads whole pages even under projection (PAX property)") {
    val cache = new BufferCache(512)
    val ds = new LsmDataset("apax-io", tmpDir(), LayoutKind.Apax, smallConfig, cache)
    (0L until 2000L).map(gamerRecord).foreach(ds.upsert)
    ds.forceFullMerge()
    val dataPages = ds.components.head.file.numPages
    cache.clear(); cache.stats.reset()
    val scoreCol = ds.schema.columns.find(_.path == "score").get.columnId
    ds.scan(Array(scoreCol)).foreach(_.shapes())
    assert(cache.stats.logicalReads >= dataPages, "APAX touches every page regardless of projection")
  }

  test("[vb] batched lookup requests each page once, not once per key") {
    val cache = new BufferCache(512)
    val ds = new LsmDataset("vb-fwd", tmpDir(), LayoutKind.VB, smallConfig, cache)
    (0L until 2000L).map(gamerRecord).foreach(ds.upsert)
    ds.forceFullMerge()
    val h = ds.components.head
    assert(ds.components.size == 1 && h.file.numPages > 1)
    // An 8 KB page holds far more than ten of these records.
    val keys = (0L until 10L).toArray
    cache.clear(); cache.stats.reset()
    assert(ds.batchedLookup(keys, null).map(_._1).toSeq == keys.toSeq)
    assert(cache.stats.logicalReads == 1, "ten keys in one page: one page request")
    cache.clear(); cache.stats.reset()
    assert(ds.batchedLookup((0L until 2000L).toArray, null).size == 2000)
    assert(cache.stats.logicalReads == h.file.numPages, "every key: each page requested once")
  }

  test("[amax] projection reads only page 0 + the projected megapages") {
    val cache = new BufferCache(512)
    val ds = new LsmDataset("amax-io", tmpDir(), LayoutKind.Amax, smallConfig, cache)
    (0L until 2000L).map(gamerRecord).foreach(ds.upsert)
    ds.forceFullMerge()
    val totalPages = ds.components.head.file.numPages

    cache.clear(); cache.stats.reset()
    ds.scan(Array.emptyIntArray).size // count-style: keys only
    val countPages = cache.stats.logicalReads
    assert(countPages < totalPages, "count should not read value megapages")

    cache.clear(); cache.stats.reset()
    val scoreCol = ds.schema.columns.find(_.path == "score").get.columnId
    ds.scan(Array(scoreCol)).foreach(_.shapes())
    val onePages = cache.stats.logicalReads

    cache.clear(); cache.stats.reset()
    ds.scan(null).foreach(_.shapes())
    val allPages = cache.stats.logicalReads
    assert(onePages < allPages, "projection must touch fewer pages than full scan")
  }

  test("[amax] zone maps prune leaves whose range excludes the predicate") {
    val ds = mkDataset(LayoutKind.Amax)
    // report_time correlates with key order → leaves have tight ranges
    (0L until 1000L).foreach(i => ds.upsert(
      JObject.of("id" -> JLong(i), "rt" -> JLong(1000 + i), "pad" -> JString("p" * 50))))
    ds.forceFullMerge()
    val m = ds.schema.columns.find(_.path == "rt").get
    val zone = AmaxLayout.ZonePredicate(Seq((m, JLong(1100), JLong(1150))))
    val tuples = ds.scan(Array(m.columnId), zone).toVector
    assert(tuples.size == 1000, "pruned leaves still flow keys for reconciliation")
    val prunedCount = tuples.count(_.pruned)
    assert(prunedCount > 0, "some leaves must be pruned")
    // No record inside a pruned leaf may satisfy the predicate.
    tuples.filter(_.pruned).foreach { t =>
      assert(t.key < 100 || t.key > 150)
    }
  }

  test("[vertical merge] preserves unions and nested arrays byte-for-byte semantics") {
    for (layout <- Seq(LayoutKind.Apax, LayoutKind.Amax)) {
      val ds = mkDataset(layout)
      val recs = (0L until 600L).map { i =>
        if (i % 3 == 0) JObject.of("id" -> JLong(i), "v" -> JString("s" + i))
        else if (i % 3 == 1) JObject.of("id" -> JLong(i), "v" -> JLong(i),
          "arr" -> JArray(Vector(JString("a"), JArray(Vector(JString("b"), JString("c"))))))
        else JObject.of("id" -> JLong(i), "v" -> JObject.of("nested" -> JBool(true)))
      }
      recs.foreach(ds.upsert)
      ds.forceFullMerge()
      assert(ds.components.size == 1)
      val got = ds.scan().map(_.record()).toVector
      assert(got.size == 600)
      recs.zip(got.sortBy(_.get("id").get.asInstanceOf[JLong].v)).foreach { case (in, out) =>
        assert(normalize(out) == normalize(in))
      }
    }
  }

  test("storage accounting: VB smaller than Open; columnar encodes numerics well") {
    val sizes = LayoutKind.all.map { layout =>
      val ds = mkDataset(layout, smallConfig.copy(memBudgetBytes = 4L << 20))
      Datasets.sensors(800).foreach(ds.upsert)
      ds.forceFullMerge()
      layout.name -> ds.sizeOnDisk
    }.toMap
    assert(sizes("vb") < sizes("open"))
    assert(sizes("amax") < sizes("vb"), "numeric dataset: AMAX encodings beat row-major")
  }

  test("open components round-trip the recursive format exactly") {
    val rec = Datasets.wos(3).toSeq.last
    val bytes = repro.lsm.layout.OpenCodec.write(rec)
    assert(normalize(repro.lsm.layout.OpenCodec.read(bytes)) == normalize(rec))
  }

  test("vb codec round-trips with a shared dictionary") {
    val dict = new repro.lsm.layout.FieldDict
    val recs = Datasets.tweet2(5).toSeq
    val enc = recs.map(r => repro.lsm.layout.VbCodec.write(r, dict))
    recs.zip(enc).foreach { case (r, b) =>
      assert(normalize(repro.lsm.layout.VbCodec.read(b, 0, dict)) == normalize(r))
    }
    assert(enc.map(_.length).sum < recs.map(repro.lsm.layout.OpenCodec.write(_).length).sum)
  }
}
