package repro.core

import repro.encoding.{AtomicType, BufReader, BufWriter}
import scala.collection.mutable

/** Kind tags used as union-alternative keys (§3.2.2: "the keys of the union
  * nodes' children are their types").
  */
object Kind {
  val Long = "long"; val Double = "double"; val Str = "string"; val Bool = "boolean"
  val Obj = "object"; val Arr = "array"
  def of(v: JValue): String = v match {
    case JLong(_) => Long
    case JDouble(_) => Double
    case JString(_) => Str
    case JBool(_) => Bool
    case _: JObject => Obj
    case _: JArray => Arr
    case JNull => "null"
  }
}

/** Nodes of the inferred schema tree (§2.2, §3.2.2).
  *
  * Level model (DESIGN.md §2): root object is level 0; an object field's node
  * sits one level below its object; an array's element slot sits one level
  * below the array; union nodes are *logical* — alternatives sit at the
  * union's own level and add no level. Because unions add no level, injecting
  * a union above an existing node never changes already-written definition
  * levels — the property §3.2.2 relies on for LSM immutability.
  */
sealed trait SchemaNode { def ownLevel: Int }

final class AtomicNode(val ownLevel: Int, val tpe: AtomicType, val columnId: Int) extends SchemaNode

final class ObjectNode(val ownLevel: Int) extends SchemaNode {
  val fields: mutable.LinkedHashMap[String, SchemaNode] = mutable.LinkedHashMap.empty
}

final class ArrayNode(val ownLevel: Int) extends SchemaNode {
  /** Element-slot node; null until the first element is observed (an array
    * that was only ever seen empty has no leaves and thus no columns).
    */
  var item: SchemaNode = _
  /** Level proving "an element slot exists" (Parquet-style 3-level lists:
    * one level for the array, one for the slot, values below — this extra
    * level vs. the paper's figures is what makes missing / empty / null
    * element all stream-decodable; delimiter semantics are unchanged).
    */
  def slotLevel: Int = ownLevel + 1
  /** Own level of the element value node. */
  def itemLevel: Int = ownLevel + 2
}

final class UnionNode(val ownLevel: Int) extends SchemaNode {
  val alternatives: mutable.LinkedHashMap[String, SchemaNode] = mutable.LinkedHashMap.empty
}

/** Per-leaf metadata registered at column creation and kept stable for the
  * dataset's lifetime (column ids are append-only, like the paper's schema
  * whose latest flush is a superset of all previous ones).
  */
final case class ColumnMeta(
    columnId: Int,
    path: String,
    tpe: AtomicType,
    maxDef: Int,
    /** Own levels of ancestor ArrayNodes, outermost first; empty for scalar columns. */
    arrayLevels: Vector[Int],
) {
  def numArrays: Int = arrayLevels.length
  def maxDelimiter: Int = numArrays - 1
}

/** The mutable inferred schema of one dataset (one per LSM partition in the
  * paper; we keep one per dataset). `observe` merges one record into the
  * tree, creating columns / injecting unions as needed — the tuple-compactor
  * inference run during each LSM flush (§2.2, §4.5).
  */
final class Schema {
  val root = new ObjectNode(0)
  private val columnsBuf = mutable.ArrayBuffer.empty[ColumnMeta]

  def columns: IndexedSeq[ColumnMeta] = columnsBuf.toIndexedSeq
  def numColumns: Int = columnsBuf.length
  def column(id: Int): ColumnMeta = columnsBuf(id)

  /** Max definition level across all columns (def-stream bit width). */
  def maxDefOverall: Int = if (columnsBuf.isEmpty) 1 else columnsBuf.map(_.maxDef).max

  /** The node at a record-rooted object path, descending through union
    * object-alternatives (the paper's union access rule); None if the path
    * is not in the schema.
    */
  def nodeAt(path: Seq[String]): Option[SchemaNode] = {
    def descend(node: SchemaNode, p: List[String]): Option[SchemaNode] = (node, p) match {
      case (n, Nil) => Some(n)
      case (on: ObjectNode, f :: rest) => on.fields.get(f).flatMap(descend(_, rest))
      case (un: UnionNode, p2) => un.alternatives.get(Kind.Obj).flatMap(descend(_, p2))
      case _ => None
    }
    descend(root, path.toList)
  }

  /** Leaf columns under a record-rooted object path; empty if the path is
    * not in the schema.
    */
  def leavesUnderPath(path: Seq[String]): Array[Int] =
    nodeAt(path).map(Schema.leavesUnder).getOrElse(Array.emptyIntArray)

  private[core] def registerLoaded(m: ColumnMeta): Unit = {
    require(m.columnId == columnsBuf.length, "column ids must load in order")
    columnsBuf += m
  }

  private def newLeaf(level: Int, t: AtomicType, path: List[String], arrays: Vector[Int]): AtomicNode = {
    val id = columnsBuf.length
    columnsBuf += ColumnMeta(id, path.reverse.mkString("."), t, level, arrays)
    new AtomicNode(level, t, id)
  }

  private def atomicTypeOf(v: JValue): AtomicType = v match {
    case JLong(_) => AtomicType.TLong
    case JDouble(_) => AtomicType.TDouble
    case JString(_) => AtomicType.TString
    case JBool(_) => AtomicType.TBool
    case _ => sys.error(s"not atomic: $v")
  }

  def observe(record: JObject): Unit = observeObject(root, record, Nil, Vector.empty)

  /** Merge `value` into the node occupying `level`; returns the (possibly
    * replaced) node. `path`/`arrays` only feed new-column registration.
    */
  private def observeValue(node: SchemaNode, value: JValue, level: Int,
                           path: List[String], arrays: Vector[Int]): SchemaNode = value match {
    case JNull => node // null ≡ missing: no type evidence (DESIGN.md substitution 5)
    case o: JObject => node match {
      case null =>
        val on = new ObjectNode(level); observeObject(on, o, path, arrays); on
      case on: ObjectNode => observeObject(on, o, path, arrays); on
      case an: ArrayNode => toUnion(level, Kind.Arr -> an, path, arrays, value)
      case at: AtomicNode => toUnion(level, at.tpe.name -> at, path, arrays, value)
      case un: UnionNode => observeIntoUnion(un, value, path, arrays); un
    }
    case a: JArray => node match {
      case null =>
        val an = new ArrayNode(level); observeArray(an, a, path, arrays); an
      case an: ArrayNode => observeArray(an, a, path, arrays); an
      case on: ObjectNode => toUnion(level, Kind.Obj -> on, path, arrays, value)
      case at: AtomicNode => toUnion(level, at.tpe.name -> at, path, arrays, value)
      case un: UnionNode => observeIntoUnion(un, value, path, arrays); un
    }
    case atomic => node match {
      case null => newLeaf(level, atomicTypeOf(atomic), path, arrays)
      case at: AtomicNode =>
        if (at.tpe == atomicTypeOf(atomic)) at
        else toUnion(level, at.tpe.name -> at, path, arrays, value)
      case on: ObjectNode => toUnion(level, Kind.Obj -> on, path, arrays, value)
      case an: ArrayNode => toUnion(level, Kind.Arr -> an, path, arrays, value)
      case un: UnionNode => observeIntoUnion(un, value, path, arrays); un
    }
  }

  /** Replace a non-union node by a union of {existing alternative, new value's type}. */
  private def toUnion(level: Int, existing: (String, SchemaNode),
                      path: List[String], arrays: Vector[Int], value: JValue): UnionNode = {
    val un = new UnionNode(level)
    un.alternatives += existing
    observeIntoUnion(un, value, path, arrays)
    un
  }

  private def observeIntoUnion(un: UnionNode, value: JValue,
                               path: List[String], arrays: Vector[Int]): Unit = {
    if (value == JNull) return
    val k = Kind.of(value)
    val cur = un.alternatives.getOrElse(k, null)
    val merged = observeValue(cur, value, un.ownLevel, k :: path, arrays)
    un.alternatives(k) = merged
  }

  private def observeObject(on: ObjectNode, o: JObject,
                            path: List[String], arrays: Vector[Int]): Unit = {
    o.fields.foreach { case (name, v) =>
      if (v != JNull) {
        val cur = on.fields.getOrElse(name, null)
        val merged = observeValue(cur, v, on.ownLevel + 1, name :: path, arrays)
        on.fields(name) = merged
      }
    }
  }

  private def observeArray(an: ArrayNode, a: JArray,
                           path: List[String], arrays: Vector[Int]): Unit = {
    a.items.foreach { item =>
      if (item != JNull) {
        an.item = observeValue(an.item, item, an.itemLevel, "[*]" :: path, arrays :+ an.ownLevel)
      }
    }
  }

  // ------------------------------------------------------------------
  // Persistence (component metadata page stores the inferred schema, §2.2)
  // ------------------------------------------------------------------

  def serialize(): Array[Byte] = {
    val out = new BufWriter(256)
    def writeNode(n: SchemaNode): Unit = n match {
      case at: AtomicNode =>
        out.writeByte(0); out.writeString(at.tpe.name); out.writeVarInt(at.columnId)
        // Persist the original path label: a column created before a union
        // was injected keeps its pre-union path, which tree-walking cannot
        // reconstruct.
        out.writeString(column(at.columnId).path)
      case on: ObjectNode =>
        out.writeByte(1); out.writeVarInt(on.fields.size)
        on.fields.foreach { case (k, c) => out.writeString(k); writeNode(c) }
      case an: ArrayNode =>
        out.writeByte(2)
        if (an.item == null) out.writeByte(0) else { out.writeByte(1); writeNode(an.item) }
      case un: UnionNode =>
        out.writeByte(3); out.writeVarInt(un.alternatives.size)
        un.alternatives.foreach { case (k, c) => out.writeString(k); writeNode(c) }
    }
    writeNode(root)
    out.toArray
  }
}

object Schema {
  /** Leaf column ids under a node, ascending. */
  def leavesUnder(node: SchemaNode): Array[Int] = {
    val buf = mutable.ArrayBuffer.empty[Int]
    def walk(n: SchemaNode): Unit = n match {
      case at: AtomicNode => buf += at.columnId
      case on: ObjectNode => on.fields.valuesIterator.foreach(walk)
      case an: ArrayNode  => if (an.item != null) walk(an.item)
      case un: UnionNode  => un.alternatives.valuesIterator.foreach(walk)
    }
    walk(node)
    buf.toArray.sorted
  }

  def deserialize(bytes: Array[Byte]): Schema = {
    val in = new BufReader(bytes)
    val s = new Schema
    val cols = mutable.ArrayBuffer.empty[(Int, ColumnMeta)]
    def readNode(level: Int, path: List[String], arrays: Vector[Int]): SchemaNode =
      in.readByte() match {
        case 0 =>
          val t = AtomicType.byName(in.readString()); val id = in.readVarInt()
          val storedPath = in.readString()
          cols += id -> ColumnMeta(id, storedPath, t, level, arrays)
          new AtomicNode(level, t, id)
        case 1 =>
          val on = new ObjectNode(level)
          val n = in.readVarInt()
          (0 until n).foreach { _ =>
            val k = in.readString()
            on.fields(k) = readNode(level + 1, k :: path, arrays)
          }
          on
        case 2 =>
          val an = new ArrayNode(level)
          if (in.readByte() == 1)
            an.item = readNode(an.itemLevel, "[*]" :: path, arrays :+ an.ownLevel)
          an
        case 3 =>
          val un = new UnionNode(level)
          val n = in.readVarInt()
          (0 until n).foreach { _ =>
            val k = in.readString()
            un.alternatives(k) = readNode(level, k :: path, arrays)
          }
          un
      }
    val rootRead = readNode(0, Nil, Vector.empty).asInstanceOf[ObjectNode]
    s.root.fields ++= rootRead.fields
    val sorted = cols.sortBy(_._1)
    require(sorted.zipWithIndex.forall { case ((id, _), i) => id == i }, "non-contiguous column ids")
    sorted.foreach { case (_, m) => s.registerLoaded(m) }
    s
  }
}
