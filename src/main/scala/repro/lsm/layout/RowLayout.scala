package repro.lsm.layout

import repro.core._
import repro.encoding.{BufReader, BufWriter}
import repro.lsm._
import repro.lsm.layout.AmaxLayout.ZonePredicate
import scala.collection.mutable

/** Slotted-page component for the row-major layouts (Open and VB).
  *
  * Page layout: `[nRecs varint][dir: (key 8B, anti 1B, offset 4B) × n]
  * [record bytes…]` — keys in the directory give in-page binary search for
  * point lookups (the logarithmic search §4.6 contrasts with columnar
  * layouts' linear decode).
  */
object RowLayout {

  final class Writer(kind: LayoutKind, schema: Schema, dict: FieldDict, config: LsmConfig)
      extends ComponentWriter(kind, schema, dict, config) {
    private val pageDir = mutable.ArrayBuffer.empty[PageInfo]
    private val curRecs = mutable.ArrayBuffer.empty[(Long, Boolean, Array[Byte])]
    private var curBytes = 0

    /** `body` is the pre-serialized record in this layout's row format
      * (serialized at insert time into the in-memory component, so the
      * construction cost lands on ingestion, as in the paper).
      */
    def add(key: Long, antimatter: Boolean, body: Array[Byte]): Unit = {
      val b = if (antimatter) Array.emptyByteArray else body
      curRecs += ((key, antimatter, b))
      curBytes += b.length + 13
      count(key, antimatter)
      if (curBytes >= config.pageSize - 64) cutPage()
    }

    private def cutPage(): Unit = {
      if (curRecs.isEmpty) return
      val out = new BufWriter(curBytes + 64)
      out.writeVarInt(curRecs.length)
      val dirSizeGuess = out.size + curRecs.length * 13
      var off = dirSizeGuess
      curRecs.foreach { case (k, a, b) =>
        out.writeLongLE(k); out.writeByte(if (a) 1 else 0); out.writeIntLE(off)
        off += b.length
      }
      curRecs.foreach { case (_, _, b) => out.writeBytes(b) }
      pages += out.toArray
      pageDir += PageInfo(curRecs.length, curRecs.head._1, curRecs.last._1)
      curRecs.clear(); curBytes = 0
    }

    protected def finishPages(): Array[Byte] = { cutPage(); PageInfo.write(pageDir) }
  }

  final class Handle(seq: Long, meta: ComponentMeta, file: PagedFile, metaPath: java.io.File)
      extends ComponentHandle(seq, meta, file, metaPath) {
    lazy val chunks: Array[PageInfo] = PageInfo.parse(meta.directory)

    def newCursor(datasetSchema: Schema, projection: Array[Int], zone: ZonePredicate): CompCursor = new Cursor

    private def decodeBody(page: Array[Byte], off: Int): JObject = {
      val v = if (meta.layout == LayoutKind.Open) OpenCodec.read(page, off)
              else VbCodec.read(page, off, meta.dict)
      v.asInstanceOf[JObject]
    }

    final class Cursor extends CompCursor {
      private var pageIdx = -1
      private var page: Array[Byte] = _
      private var nRecs = 0
      private var slot = -1
      private var dirBase = 0
      var key: Long = _
      var isAntimatter: Boolean = _
      private var offset = 0

      def advance(): Boolean = {
        slot += 1
        while (pageIdx < 0 || slot >= nRecs) {
          pageIdx += 1
          if (pageIdx >= file.numPages) return false
          page = file.readPage(pageIdx)
          val in = new BufReader(page)
          nRecs = in.readVarInt()
          dirBase = in.position
          slot = 0
        }
        val in = new BufReader(page, dirBase + slot * 13)
        key = in.readLongLE()
        isAntimatter = in.readByte() == 1
        offset = in.readIntLE()
        true
      }

      override def record(): JObject = decodeBody(page, offset)
    }

    /** Binary search over a page's slot directory. Row-major: the whole
      * record is decoded regardless of projection.
      */
    private def search(page: Array[Byte], key: Long): Option[Option[JObject]] = {
      val in = new BufReader(page)
      val n = in.readVarInt()
      val base = in.position
      var a = 0; var b = n - 1
      while (a <= b) {
        val m = (a + b) >>> 1
        val r = new BufReader(page, base + m * 13)
        val k = r.readLongLE()
        if (key < k) b = m - 1
        else if (key > k) a = m + 1
        else {
          val anti = r.readByte() == 1
          val off = r.readIntLE()
          return Some(if (anti) None else Some(decodeBody(page, off)))
        }
      }
      None
    }

    def pointLookup(key: Long, datasetSchema: Schema, projection: Array[Int]): Option[Option[JObject]] = {
      val i = chunkOf(key)
      if (i < 0) None else search(file.readPage(i), key)
    }

    def forwardLookup(datasetSchema: Schema, projection: Array[Int]): ForwardLookup =
      new ForwardLookup(this, { i => val page = file.readPage(i); key => search(page, key) })
  }
}
