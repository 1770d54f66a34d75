package repro.lsm

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

object ReconcilerSpec {
  /** A source's entries: ascending keys, each with its anti-matter bit. */
  type Source = Vector[(Long, Boolean)]

  final class SourceCursor(entries: Source) extends CompCursor {
    private var i = -1
    def advance(): Boolean = { i += 1; i < entries.length }
    def key: Long = entries(i)._1
    def isAntimatter: Boolean = entries(i)._2
  }

  /** Keys from a window of the key space, so that sources tie on some keys
    * and hold runs of keys no other source has; an empty source is drained
    * from the start.
    */
  val sourceGen: Gen[Source] = for {
    from <- Gen.choose(0L, 60L)
    n    <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 30))
    keys <- Gen.containerOfN[Set, Long](n, Gen.choose(from, from + 40))
    anti <- Gen.listOfN(keys.size, Gen.frequency(4 -> false, 1 -> true))
  } yield keys.toVector.sorted.zip(anti)

  /** Sources with distinct sequence numbers; the last is sometimes the
    * memory component (`Long.MaxValue`). `early(i)`: whether the caller
    * advances the shadowed sources right after the i-th key.
    */
  final case class Case(sources: Vector[Source], seqs: Vector[Long], early: Vector[Boolean])

  val caseGen: Gen[Case] = for {
    k      <- Gen.choose(1, 5)
    srcs   <- Gen.listOfN(k, sourceGen)
    seqs   <- Gen.listOfN(k, Gen.choose(1L, 1000L)).suchThat(s => s.distinct.length == s.length)
    memory <- Gen.oneOf(true, false)
    early  <- Gen.listOfN(16, Gen.oneOf(true, false))
  } yield Case(srcs.toVector, if (memory) seqs.toVector.updated(k - 1, Long.MaxValue) else seqs.toVector,
    early.toVector)

  /** Per key in order: the key, the winner, the shadowed sources newest
    * first, and the winner's anti-matter bit, under plain newest-wins.
    */
  def reference(c: Case): Vector[(Long, Int, Seq[Int], Boolean)] =
    c.sources.flatMap(_.map(_._1)).distinct.sorted.map { k =>
      val holders = c.sources.indices.filter(i => c.sources(i).exists(_._1 == k)).sortBy(i => -c.seqs(i))
      (k, holders.head, holders.tail, c.sources(holders.head).find(_._1 == k).get._2)
    }
}

/** The reconciling merge against a plain newest-wins reference over random
  * sorted sources: ties, anti-matter, drained sources, and runs that the
  * reconciler passes on without its heap.
  */
class ReconcilerSpec extends AnyFunSuite {
  import ReconcilerSpec._

  test("property: winner, shadowed sources and their order per key equal newest-wins") {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300),
      Prop.forAll(caseGen) { c =>
        val r = new Reconciler(c.sources.map(s => new SourceCursor(s): CompCursor).toArray, c.seqs.toArray)
        val got = mutable.ArrayBuffer.empty[(Long, Int, Seq[Int], Boolean)]
        while (r.next()) {
          got += ((r.key, r.winner, (0 until r.numShadowed).map(r.shadowed), r.cursor.isAntimatter))
          if (c.early(got.length % c.early.length)) r.advanceShadowed()
        }
        val want = reference(c)
        if (got != want) println(s"sources ${c.sources} seqs ${c.seqs}\n got  $got\n want $want")
        got == want
      })
    assert(res.passed, res.status.toString)
  }
}
