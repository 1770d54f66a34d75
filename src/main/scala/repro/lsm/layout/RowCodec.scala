package repro.lsm.layout

import repro.core._
import java.nio.charset.StandardCharsets
import repro.encoding.{BufReader, BufWriter}
import scala.collection.mutable

/** Field-name dictionary for the Vector-Based format: names live once per
  * component (centralized, like the inferred schema) instead of once per
  * record as in the Open format.
  */
final class FieldDict {
  private val names = mutable.ArrayBuffer.empty[String]
  private val ids = mutable.HashMap.empty[String, Int]
  def id(name: String): Int =
    ids.getOrElseUpdate(name, { names += name; names.length - 1 })
  def name(id: Int): String = names(id)
  def size: Int = names.length
  def serialize(out: BufWriter): Unit = {
    out.writeVarInt(names.length); names.foreach(out.writeString)
  }
}
object FieldDict {
  def deserialize(in: BufReader): FieldDict = {
    val d = new FieldDict
    val n = in.readVarInt()
    (0 until n).foreach(_ => d.id(in.readString()))
    d
  }
}

/** AsterixDB's schemaless recursive record format ("Open"): field names are
  * embedded in every record and every nested value is reached via 4-byte
  * relative pointers ([23]'s description, §6.2). Construction copies each
  * child's bytes into its parent — the leaf-to-root memcpy chain that makes
  * Open the slowest layout to build (§6.3.1).
  */
object OpenCodec {
  def write(v: JValue): Array[Byte] = {
    val out = new BufWriter(64)
    writeInto(v, out)
    out.toArray
  }

  private def writeInto(v: JValue, out: BufWriter): Unit = v match {
    case JNull      => out.writeByte(0)
    case JBool(b)   => out.writeByte(1); out.writeByte(if (b) 1 else 0)
    case JLong(l)   => out.writeByte(2); out.writeLongLE(l)
    case JDouble(d) => out.writeByte(3); out.writeDoubleLE(d)
    case JString(s) =>
      val bs = s.getBytes(StandardCharsets.UTF_8)
      out.writeByte(4); out.writeIntLE(bs.length); out.writeBytes(bs)
    case JObject(fs) =>
      // Children are built in their own buffers, then copied into the parent
      // after the offset table — deliberately reproducing Open's build cost.
      val children = fs.map { case (_, cv) => write(cv) }
      out.writeByte(5); out.writeIntLE(fs.length)
      var rel = 0
      fs.indices.foreach { i =>
        val nb = fs(i)._1.getBytes(StandardCharsets.UTF_8)
        out.writeIntLE(nb.length); out.writeBytes(nb)
        out.writeIntLE(rel)
        rel += children(i).length
      }
      children.foreach(out.writeBytes(_))
    case JArray(items) =>
      val children = items.map(write)
      out.writeByte(6); out.writeIntLE(items.length)
      var rel = 0
      children.foreach { c => out.writeIntLE(rel); rel += c.length }
      children.foreach(out.writeBytes(_))
  }

  def read(bytes: Array[Byte], start: Int = 0): JValue = readFrom(new BufReader(bytes, start))

  private def readFrom(in: BufReader): JValue = in.readByte() match {
    case 0 => JNull
    case 1 => JBool(in.readByte() == 1)
    case 2 => JLong(in.readLongLE())
    case 3 => JDouble(in.readDoubleLE())
    case 4 => JString(in.readUtf8(in.readIntLE()))
    case 5 =>
      val n = in.readIntLE()
      val names = new Array[String](n)
      var i = 0
      while (i < n) {
        names(i) = in.readUtf8(in.readIntLE())
        in.skipBytes(4) // relative pointer (sequential read ignores it)
        i += 1
      }
      val fields = new Array[AnyRef](n)
      i = 0
      while (i < n) { fields(i) = (names(i), readFrom(in)); i += 1 }
      JObject(Json.vectorOf(fields, n))
    case 6 =>
      val n = in.readIntLE()
      in.skipBytes(4 * n) // relative pointers
      val items = new Array[AnyRef](n)
      var i = 0
      while (i < n) { items(i) = readFrom(in); i += 1 }
      JArray(Json.vectorOf(items, n))
  }
}

/** The Vector-Based row format ([23], §2.2): compacted against the central
  * field dictionary, single-pass construction (values written exactly once),
  * varint-packed scalars. Row-major, so scans still read whole records.
  */
object VbCodec {
  def write(v: JValue, dict: FieldDict): Array[Byte] = {
    val out = new BufWriter(64)
    writeInto(v, out, dict)
    out.toArray
  }

  def writeInto(v: JValue, out: BufWriter, dict: FieldDict): Unit = v match {
    case JNull      => out.writeByte(0)
    case JBool(b)   => out.writeByte(1); out.writeByte(if (b) 1 else 0)
    case JLong(l)   => out.writeByte(2); out.writeZigZag(l)
    case JDouble(d) => out.writeByte(3); out.writeDoubleLE(d)
    case JString(s) => out.writeByte(4); out.writeString(s)
    case JObject(fs) =>
      out.writeByte(5); out.writeVarInt(fs.length)
      fs.foreach { case (k, cv) => out.writeVarInt(dict.id(k)); writeInto(cv, out, dict) }
    case JArray(items) =>
      out.writeByte(6); out.writeVarInt(items.length)
      items.foreach(writeInto(_, out, dict))
  }

  def read(bytes: Array[Byte], start: Int, dict: FieldDict): JValue =
    readFrom(new BufReader(bytes, start), dict)

  def readFrom(in: BufReader, dict: FieldDict): JValue = in.readByte() match {
    case 0 => JNull
    case 1 => JBool(in.readByte() == 1)
    case 2 => JLong(in.readZigZag())
    case 3 => JDouble(in.readDoubleLE())
    case 4 => JString(in.readString())
    case 5 =>
      val n = in.readVarInt()
      val fields = new Array[AnyRef](n)
      var i = 0
      while (i < n) {
        val name = dict.name(in.readVarInt())
        fields(i) = (name, readFrom(in, dict))
        i += 1
      }
      JObject(Json.vectorOf(fields, n))
    case 6 =>
      val n = in.readVarInt()
      val items = new Array[AnyRef](n)
      var i = 0
      while (i < n) { items(i) = readFrom(in, dict); i += 1 }
      JArray(Json.vectorOf(items, n))
  }
}
