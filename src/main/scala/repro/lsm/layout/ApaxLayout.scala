package repro.lsm.layout

import repro.core._
import repro.encoding.{BufReader, BufWriter}
import repro.lsm._
import scala.collection.mutable

/** APAX (§4.2): PAX-style pages inside the LSM B⁺-tree. Every leaf page
  * holds *all* columns as encoded minipages, so a scan reads whole pages
  * regardless of projection (the property Figure 16a exposes), but all of a
  * record's columns are one page away.
  *
  * Page layout: `[nRecs varint][nCols varint][minKey 8B][maxKey 8B]
  * [pkLen varint][pkChunk]` then per column `[colId varint][len varint]
  * [chunk]` where each chunk is `[defLen][defBytes][valueBytes]` (§4.2's
  * "first four bytes determine the size of the encoded definition levels").
  */
object ApaxLayout {

  final class Writer(schema: Schema, dict: FieldDict, config: LsmConfig)
      extends ColumnarWriter(LayoutKind.Apax, schema, dict, config) {
    private val pageDir = mutable.ArrayBuffer.empty[PageInfo]

    protected def chunkFull: Boolean = {
      var s = pk.sizeEstimate + 32
      var i = 0
      while (i < writers.length) { s += writers(i).sizeEstimate + 6; i += 1 }
      s >= config.pageSize
    }

    protected def cutChunk(): Unit = {
      if (pk.count == 0) return
      val out = new BufWriter(config.pageSize)
      out.writeVarInt(pk.count)
      out.writeVarInt(writers.length)
      out.writeLongLE(chunkMinKey); out.writeLongLE(chunkMaxKey)
      val pkBytes = pk.finish()
      out.writeVarInt(pkBytes.length); out.writeBytes(pkBytes)
      writers.foreach { w =>
        val b = w.finish()
        out.writeVarInt(w.meta.columnId); out.writeVarInt(b.length); out.writeBytes(b)
      }
      pages += out.toArray
      pageDir += PageInfo(pk.count, chunkMinKey, chunkMaxKey)
      nextChunk()
    }

    protected def finishPages(): Array[Byte] = { cutChunk(); PageInfo.write(pageDir) }
  }

  /** Parsed in-memory view of one APAX page. */
  final class PageView(raw: Array[Byte]) extends ColumnarChunk {
    private val in = new BufReader(raw)
    val nRecs: Int = in.readVarInt()
    val nCols: Int = in.readVarInt()
    val minKey: Long = in.readLongLE()
    val maxKey: Long = in.readLongLE()
    private val pkLen = in.readVarInt()
    private val pkStart = in.position
    val (keys, anti) = PkChunk.decode(raw, pkStart, pkStart + pkLen, nRecs)
    // Column directory: the page holds every column id below nCols, listed
    // in id order; chunk [start, end) by column id.
    private val chunkStart = new Array[Int](nCols)
    private val chunkEnd = new Array[Int](nCols)
    locally {
      in.skipBytes(pkLen)
      var i = 0
      while (i < nCols) {
        val id = in.readVarInt(); val len = in.readVarInt()
        chunkStart(id) = in.position; chunkEnd(id) = in.position + len
        in.skipBytes(len)
        i += 1
      }
    }

    def reader(meta: ColumnMeta): ColumnChunkReader = {
      val id = meta.columnId
      if (id < nCols) new ColumnChunkReader(meta, raw, chunkStart(id), chunkEnd(id))
      else ColumnChunkReader.allAbsent(meta)
    }
  }

  final class Handle(seq: Long, meta: ComponentMeta, file: PagedFile, metaPath: java.io.File)
      extends ColumnarHandle(seq, meta, file, metaPath) {
    lazy val chunks: Array[PageInfo] = PageInfo.parse(meta.directory)
    def chunk(i: Int): ColumnarChunk = new PageView(file.readPage(i))
  }
}
