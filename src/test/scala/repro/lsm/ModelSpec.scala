package repro.lsm

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.RoundTrip.normalize
import java.nio.file.Files

object ModelSpec {
  sealed trait Op
  final case class Upsert(pk: Long, variant: Int) extends Op
  final case class Delete(pk: Long) extends Op
  case object Flush extends Op
  case object FullMerge extends Op

  val MaxKey = 60L

  /** A record whose shape depends on `variant`: `v` changes type (a union
    * column) or is absent, `arr` has 0–4 elements, `o` nests an array of a
    * string and an array, and `name` varies in length so pages cut at
    * different records.
    */
  def record(pk: Long, variant: Int): JObject = {
    val fs = Vector.newBuilder[(String, JValue)]
    fs += "id" -> JLong(pk)
    fs += "name" -> JString(s"n$pk-$variant" + "x" * (variant % 5 * 10))
    variant % 4 match {
      case 0 => fs += "v" -> JLong(variant * 1000003L)
      case 1 => fs += "v" -> JString(s"s$variant")
      case 2 => fs += "v" -> JDouble(variant / 7.0)
      case _ => ()
    }
    if (variant % 3 == 0) fs += "arr" -> JArray((0 until variant % 5).map(i => JLong(i): JValue).toVector)
    if (variant % 5 == 1)
      fs += "o" -> JObject.of("a" -> JLong(variant), "b" -> JArray.of(JString("x"), JArray.of(JLong(1))))
    JObject(fs.result())
  }

  val opGen: Gen[Op] = Gen.frequency(
    10 -> Gen.zip(Gen.choose(0L, MaxKey), Gen.choose(0, 99)).map { case (k, v) => Upsert(k, v) },
    3 -> Gen.choose(0L, MaxKey).map(Delete(_)),
    1 -> Gen.const(Flush),
    1 -> Gen.const(FullMerge))

  /** Keys a batched lookup asks for: touched and untouched, sorted. */
  val sampleGen: Gen[Array[Long]] =
    Gen.containerOf[Set, Long](Gen.choose(-2L, MaxKey + 4)).map(_.toArray.sorted)

  /** Small pages, leaves and memory budget, so that a few dozen operations
    * flush several components and tiering merges run (row merges on
    * Open/VB, vertical merges on APAX/AMAX).
    */
  val config = LsmConfig(pageSize = 2048, memBudgetBytes = 1500, amaxLeafRecords = 8,
    maxComponents = 3, bufferCachePages = 64)
}

/** Model-based check of the LSM read paths: random upserts, deletes, flushes
  * and full merges run on every layout, and every read path (full scan,
  * projected and keys-only scans, point and batched lookups) must agree with
  * a `TreeMap` of the surviving records.
  */
class ModelSpec extends AnyFunSuite {
  import ModelSpec._

  private def name(r: JObject): JValue = r.get("name").getOrElse(JNull)

  /** Comparison form of a record read from `ds`. On columnar layouts an
    * empty array striped while the schema had never seen an element under
    * it has no columns and reads back as absent (DESIGN.md, "Arrays"), so
    * there an empty `arr` compares equal to a missing one.
    */
  private def canon(ds: LsmDataset, r: JObject): JValue =
    normalize(if (ds.layout.isColumnar) JObject(r.fields.filterNot(_ == ("arr" -> JArray(Vector.empty)))) else r)

  /** Runs `ops` on a fresh dataset, checks every read path against the
    * model and returns the number of merges the dataset ran.
    */
  private def check(layout: LayoutKind, ops: List[Op], sample: Array[Long]): Int = {
    val dir = Files.createTempDirectory("modelspec").toFile
    val ds = new LsmDataset(s"m-${layout.name}", dir, layout, config, new BufferCache(config.bufferCachePages))
    val model = new java.util.TreeMap[Long, JObject]()
    try {
      ops.foreach {
        case Upsert(k, v) => val r = record(k, v); ds.upsert(r); model.put(k, r)
        case Delete(k)    => ds.delete(k); model.remove(k)
        case Flush        => ds.flush()
        case FullMerge    => ds.forceFullMerge()
      }
      val want = scala.jdk.CollectionConverters.MapHasAsScala(model).asScala.toVector
      val nameCols = ds.schema.leavesUnderPath(Seq("name"))
      val full = ds.scan().map(t => t.key -> canon(ds, t.record())).toVector
      assert(full == want.map { case (k, r) => k -> canon(ds, r) }, "full scan")
      val projected = ds.scan(nameCols).map(t => t.key -> name(t.record())).toVector
      assert(projected == want.map { case (k, r) => k -> name(r) }, "projected scan")
      assert(ds.scan(Array.emptyIntArray).map(_.key).toVector == want.map(_._1), "keys-only scan")
      val touched = ops.collect { case Upsert(k, _) => k; case Delete(k) => k }.distinct
      (touched ++ Seq(-1L, MaxKey + 1, MaxKey + 7)).foreach { k =>
        val m = Option(model.get(k))
        assert(ds.pointLookup(k).map(canon(ds, _)) == m.map(canon(ds, _)), s"pointLookup($k)")
        assert(ds.pointLookup(k, nameCols).map(name) == m.map(name), s"projected pointLookup($k)")
      }
      val wantSample = sample.toVector.flatMap(k => Option(model.get(k)).map(k -> _))
      assert(ds.batchedLookup(sample, null).map { case (k, r) => k -> canon(ds, r) }.toVector ==
        wantSample.map { case (k, r) => k -> canon(ds, r) }, "batchedLookup")
      assert(ds.batchedLookup(sample, nameCols).map { case (k, r) => k -> name(r) }.toVector ==
        wantSample.map { case (k, r) => k -> name(r) }, "projected batchedLookup")
      ds.numMerges
    } finally {
      dir.listFiles().foreach(_.delete()); dir.delete()
    }
  }

  for (layout <- LayoutKind.all) {
    test(s"[${layout.name}] property: scans and lookups equal a TreeMap model under upserts, deletes, flushes and merges") {
      var merges = 0
      val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60),
        Prop.forAll(Gen.listOf(opGen), sampleGen) { (ops, sample) =>
          merges += check(layout, ops, sample); true
        })
      assert(res.passed, res.status.toString)
      assert(merges > 0, "the sequences must run tiering or full merges")
    }
  }
}
