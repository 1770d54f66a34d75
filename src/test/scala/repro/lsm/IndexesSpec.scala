package repro.lsm

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.core._
import scala.collection.mutable

object IndexesSpec {
  /** Operations on an indexed dataset, as the secondary index sees them. */
  sealed trait Op
  final case class Upsert(pk: Long, value: Long) extends Op
  final case class Delete(pk: Long) extends Op
  case object Flush extends Op
  case object Compact extends Op
  final case class Query(lo: Long, hi: Long) extends Op
}

class IndexesSpec extends AnyFunSuite {
  import IndexesSpec._

  test("primary-key index: no false negatives across flushes") {
    val idx = new PrimaryKeyIndex
    (0L until 100L).foreach(idx.insert)
    idx.flush()
    (100L until 150L).foreach(idx.insert)
    (0L until 150L).foreach(k => assert(idx.mayContain(k)))
    assert(!idx.mayContain(999L))
  }

  test("primary-key index compaction preserves membership") {
    val idx = new PrimaryKeyIndex
    (0L until 50L).foreach(idx.insert); idx.flush()
    (25L until 80L).foreach(idx.insert); idx.flush()
    idx.compact()
    (0L until 80L).foreach(k => assert(idx.mayContain(k)))
  }

  test("secondary index: basic range lookup returns sorted PKs") {
    val idx = new SecondaryIndex("ts")
    Seq((10L, 5L), (20L, 3L), (15L, 9L), (30L, 1L)).foreach { case (v, pk) => idx.insert(v, pk) }
    idx.flush()
    assert(idx.rangeLookup(10, 20).toSeq == Seq(3L, 5L, 9L))
    assert(idx.rangeLookup(31, 99).isEmpty)
  }

  test("secondary index: anti-matter entries cancel older inserts") {
    val idx = new SecondaryIndex("ts")
    idx.insert(100L, 1L); idx.insert(100L, 2L)
    idx.flush()
    idx.delete(100L, 1L)
    idx.insert(200L, 1L)
    idx.flush()
    assert(idx.rangeLookup(100, 100).toSeq == Seq(2L))
    assert(idx.rangeLookup(200, 200).toSeq == Seq(1L))
  }

  test("secondary index: compaction drops annihilated pairs") {
    val idx = new SecondaryIndex("ts")
    (0L until 20L).foreach(i => idx.insert(i, i))
    idx.flush()
    (0L until 20L by 2).foreach(i => idx.delete(i, i))
    idx.compact()
    assert(idx.rangeLookup(0, 19).toSeq == (1L until 20L by 2).toSeq)
  }

  test("secondary index extraction follows dotted paths") {
    val idx = new SecondaryIndex("a.b.ts")
    assert(idx.extract(Json.parse("""{"a":{"b":{"ts":42}}}""").asInstanceOf[JObject]).contains(42L))
    assert(idx.extract(Json.parse("""{"a":{}}""").asInstanceOf[JObject]).isEmpty)
    assert(idx.extract(Json.parse("""{"a":{"b":{"ts":"x"}}}""").asInstanceOf[JObject]).isEmpty)
  }

  test("property: secondary-index range lookups equal a brute-force model") {
    val opGen: Gen[Op] = Gen.frequency(
      6 -> Gen.zip(Gen.choose(0L, 40L), Gen.choose(0L, 60L)).map { case (pk, v) => Upsert(pk, v) },
      2 -> Gen.choose(0L, 40L).map(Delete(_)),
      1 -> Gen.const(Flush),
      1 -> Gen.const(Compact),
      3 -> Gen.zip(Gen.choose(-5L, 65L), Gen.choose(-5L, 65L)).map { case (a, b) =>
        Query(math.min(a, b), math.max(a, b)) })
    // Ops as an LsmDataset issues them: an update deletes the old value's
    // entry and inserts the new one; a delete removes the entry. The model
    // is the dataset's pk → value map itself.
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200),
      Prop.forAll(Gen.listOf(opGen)) { ops =>
        val idx = new SecondaryIndex("ts")
        val model = mutable.Map.empty[Long, Long]
        (ops :+ Query(-5, 65)).forall {
          case Upsert(pk, v) =>
            model.get(pk).foreach(idx.delete(_, pk)); idx.insert(v, pk); model(pk) = v; true
          case Delete(pk) => model.remove(pk).foreach(idx.delete(_, pk)); true
          case Flush      => idx.flush(); true
          case Compact    => idx.compact(); true
          case Query(lo, hi) =>
            idx.rangeLookup(lo, hi).toSeq ==
              model.collect { case (pk, v) if v >= lo && v <= hi => pk }.toSeq.sorted
        }
      })
    assert(res.passed, res.status.toString)
  }
}
