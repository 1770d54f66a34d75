package repro.lsm

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.datasets.Datasets
import repro.encoding.{AtomicType, BufReader}
import repro.lsm.layout.{AmaxLayout, ApaxLayout}

/** The APAX page and AMAX leaf column directories, read on demand, answer
  * exactly as an eager parse of the same bytes into a map: the same column
  * readers and the same zone-map answers for every column id, including ids
  * the page or leaf does not hold and ids beyond the dataset's schema.
  */
class ColumnDirectorySpec extends AnyFunSuite {

  private val config = LsmConfig(pageSize = 8 * 1024, memBudgetBytes = 1L << 30,
    amaxLeafRecords = 90, maxComponents = 10, bufferCachePages = 256)

  /** Two components: `cell` records first, then `tweet_2` records plus
    * deletes of some `cell` keys, so the newer component has many more
    * columns than the older one and both hold anti-matter.
    */
  private def build(layout: LayoutKind): LsmDataset = {
    val dir = java.nio.file.Files.createTempDirectory(s"coldir-${layout.name}").toFile
    val ds = new LsmDataset("coldir", dir, layout, config, new BufferCache(config.bufferCachePages))
    Datasets.cell(300).foreach(ds.upsert)
    (0L until 300L by 11).foreach(ds.delete)
    ds.flush()
    Datasets.tweet2(300).foreach { r =>
      ds.upsert(JObject(r.fields.map { case ("id", JLong(i)) => "id" -> JLong(i + 1000); case kv => kv }))
    }
    (1L until 300L by 7).foreach(ds.delete)
    ds.flush()
    assert(ds.components.length == 2)
    ds
  }

  private def remove(ds: LsmDataset): Unit = { ds.dir.listFiles().foreach(_.delete()); ds.dir.delete() }

  /** Every dataset column, plus two ids no schema has. */
  private def metas(ds: LsmDataset): Seq[ColumnMeta] =
    ds.schema.columns ++ Seq(0, 1).map(k =>
      ColumnMeta(ds.schema.numColumns + k, s"beyond$k", AtomicType.TLong, 1, Vector.empty))

  private def shapes(r: ColumnChunkReader, n: Int): Seq[Shape] = Seq.fill(n)(r.nextRecordShape())

  private val probes: Seq[(JValue, JValue)] = Seq(
    (JNull, JNull), (JLong(0), JLong(100)), (JLong(1600000000100L), JLong(1600000000150L)),
    (JLong(Long.MaxValue - 1), JLong(Long.MaxValue)), (JDouble(-80.0), JDouble(-70.0)),
    (JString("a"), JString("m")), (JString("user1"), JString("user2")), (JString("zz"), JNull))

  test("APAX pages: on-demand directory gives the eager parse's readers for every column id") {
    val ds = build(LayoutKind.Apax)
    val all = metas(ds)
    var checked = 0
    ds.components.foreach { case h: ApaxLayout.Handle =>
      (0 until h.file.numPages).foreach { p =>
        val raw = h.file.readPage(p)
        val view = new ApaxLayout.PageView(raw)
        val eager: Map[Int, (Int, Int)] = {
          val in = new BufReader(raw)
          in.readVarInt(); val nCols = in.readVarInt()
          in.readLongLE(); in.readLongLE()
          in.skipBytes(in.readVarInt())
          (0 until nCols).map { _ =>
            val id = in.readVarInt(); val len = in.readVarInt()
            val s = in.position; in.skipBytes(len)
            id -> ((s, s + len))
          }.toMap
        }
        val live = view.anti.count(!_)
        all.foreach { m =>
          val want = eager.get(m.columnId) match {
            case Some((s, e)) => new ColumnChunkReader(m, raw, s, e)
            case None         => ColumnChunkReader.allAbsent(m)
          }
          assert(shapes(view.reader(m), live) == shapes(want, live), s"page $p column ${m.columnId}")
          checked += 1
        }
      }
    case other => fail(s"unexpected component $other")
    }
    assert(checked > 0)
    remove(ds)
  }

  test("AMAX leaves: on-demand directory gives the eager parse's entries, readers and zone-map answers") {
    val ds = build(LayoutKind.Amax)
    val all = metas(ds)
    var absentSeen = false
    ds.components.foreach { case h: AmaxLayout.Handle =>
      h.leaves.zipWithIndex.foreach { case (info, l) =>
        val view = new AmaxLayout.LeafView(h, info)
        val eager: Map[Int, AmaxLayout.ColDirEntry] = {
          val in = new BufReader(h.file.readPage(info.startPage))
          in.readVarInt(); val nCols = in.readVarInt()
          in.readLongLE(); in.readLongLE()
          in.skipBytes(in.readVarInt())
          (0 until nCols).map { _ =>
            val e = AmaxLayout.ColDirEntry(in.readVarInt(), in.readVarInt(), in.readVarInt(),
              in.readLongLE(), in.readLongLE(), in.readString(), in.readString(), in.readByte() == 1)
            e.colId -> e
          }.toMap
        }
        val live = view.anti.count(!_)
        all.foreach { m =>
          val e = eager.get(m.columnId)
          absentSeen ||= e.isEmpty
          assert(view.entry(m.columnId) == e, s"leaf $l column ${m.columnId}")
          val want = e match {
            case Some(d) => val b = view.columnBytes(d); new ColumnChunkReader(m, b, 0, b.length)
            case None    => ColumnChunkReader.allAbsent(m)
          }
          assert(shapes(view.reader(m), live) == shapes(want, live), s"leaf $l column ${m.columnId}")
          probes.foreach { case (lo, hi) =>
            assert(view.mayContain(m, lo, hi) == e.exists(_.mayContain(m.tpe, lo, hi)),
              s"leaf $l column ${m.columnId} range [$lo, $hi]")
          }
        }
      }
    case other => fail(s"unexpected component $other")
    }
    assert(absentSeen, "some column id must be absent from some leaf")
    remove(ds)
  }
}
