package repro.core

/** Record assembly (§3.2.4) straight from the column readers, in the manner
  * of Dremel's assembly automaton (Melnik et al., VLDB 2010): the schema
  * tree restricted to the projected leaves is compiled once, and each
  * compiled node reads its leaves' def levels, delimiters and typed values
  * from readers positioned at one record, building the [[JValue]] as it
  * goes. Every projected leaf is read exactly once per record.
  *
  * - An atomic leaf reads its def level, then a typed value if the level is
  *   the leaf's own.
  * - An object with no present field is empty if the deepest def level its
  *   leaves showed reaches the object's own level, else absent.
  * - An array is driven by one of its leaves that the component holds: a
  *   def level below the slot level ends the record's array right there (an
  *   empty array at the array's own level, absent below it); otherwise the
  *   elements repeat until a delimiter at or above this array's depth, and
  *   each leaf then consumes its own delimiter of this depth.
  * - A union reads every alternative; the first present one wins (at most
  *   one is present per record, §3.2.2).
  * - A leaf the component lacks ([[ColumnChunkReader.allAbsent]], an older
  *   component written before the column existed) reads as absent and
  *   consumes nothing: §3.2.2's "NULLs for all previous records".
  *
  * `projection` lists the leaf columns the readers cover, in reader order;
  * null means every column of `schema`. The assembler keeps no state of its
  * own, so one instance serves any number of scans.
  */
final class Assembler(schema: Schema, projection: Array[Int]) {
  import Assembler._

  /** The projected columns, in the order of the readers every read takes. */
  val columns: Array[ColumnMeta] =
    if (projection == null) schema.columns.toArray else projection.map(schema.column)

  private val slotOf: Array[Int] = {
    val a = Array.fill(schema.numColumns)(-1)
    var i = 0
    while (i < columns.length) { a(columns(i).columnId) = i; i += 1 }
    a
  }

  private lazy val root: Node = compile(schema.root)

  /** The reader slot of column `columnId`; -1 when it is not projected. */
  def slot(columnId: Int): Int = if (columnId < slotOf.length) slotOf(columnId) else -1

  /** One whole record: every projected leaf. */
  def record(rs: Array[ColumnChunkReader]): JObject =
    if (root == null) Empty
    else root.read(rs) match { case o: JObject => o; case _ => Empty }

  /** The compiled read of the value at `node` (a node of `schema`): its
    * projected leaves only. Null when none of its leaves is projected: the
    * value is then always absent.
    */
  def at(node: SchemaNode): Node = compile(node)

  private def compile(node: SchemaNode): Node = node match {
    case at: AtomicNode =>
      val slot = this.slot(at.columnId) // -1 also for a column added since
      if (slot < 0) null
      else at.tpe match {
        case repro.encoding.AtomicType.TLong   => new LongLeaf(at.ownLevel, slot)
        case repro.encoding.AtomicType.TDouble => new DoubleLeaf(at.ownLevel, slot)
        case repro.encoding.AtomicType.TString => new StringLeaf(at.ownLevel, slot)
        case repro.encoding.AtomicType.TBool   => new BoolLeaf(at.ownLevel, slot)
        case repro.encoding.AtomicType.TNull   => new NullLeaf(at.ownLevel, slot)
      }
    case on: ObjectNode =>
      val kept = on.fields.toArray.flatMap { case (name, c) => Option(compile(c)).map(name -> _) }
      if (kept.isEmpty) null else new Obj(on.ownLevel, kept.map(_._1), kept.map(_._2))
    case an: ArrayNode =>
      if (an.item == null) null
      else {
        val item = compile(an.item)
        // The array's delimiter value: its place in its leaves' array chains.
        if (item == null) null
        else new Arr(an.ownLevel, an.slotLevel, columns(item.leaves(0)).arrayLevels.indexOf(an.ownLevel), item)
      }
    case un: UnionNode =>
      val kept = un.alternatives.valuesIterator.map(compile).filter(_ != null).toArray
      if (kept.isEmpty) null else if (kept.length == 1) kept(0) else new Union(kept)
  }
}

object Assembler {
  private val Empty = JObject(Vector.empty)

  /** A compiled schema node. [[read]] consumes this node's leaves' tokens
    * for one value position and returns the value, or null if it is absent.
    */
  sealed abstract class Node {
    /** Reader slots of the projected leaves below this node. */
    val leaves: Array[Int]
    def read(rs: Array[ColumnChunkReader]): JValue

    /** The deepest def level any leaf showed at the position just read. */
    final def deepest(rs: Array[ColumnChunkReader]): Int = {
      var m = -1
      var i = 0
      while (i < leaves.length) { m = math.max(m, rs(leaves(i)).lastDef); i += 1 }
      m
    }
  }

  private sealed abstract class Leaf(level: Int, slot: Int) extends Node {
    val leaves: Array[Int] = Array(slot)
    final def read(rs: Array[ColumnChunkReader]): JValue = {
      val r = rs(slot)
      if (r.nextDef() == level) value(r) else null
    }
    protected def value(r: ColumnChunkReader): JValue
  }
  private final class LongLeaf(level: Int, slot: Int) extends Leaf(level, slot) {
    protected def value(r: ColumnChunkReader): JValue = JLong(r.readLong())
  }
  private final class DoubleLeaf(level: Int, slot: Int) extends Leaf(level, slot) {
    protected def value(r: ColumnChunkReader): JValue = JDouble(r.readDouble())
  }
  private final class StringLeaf(level: Int, slot: Int) extends Leaf(level, slot) {
    protected def value(r: ColumnChunkReader): JValue = JString(r.readString())
  }
  private final class BoolLeaf(level: Int, slot: Int) extends Leaf(level, slot) {
    protected def value(r: ColumnChunkReader): JValue = JBool(r.readBool())
  }
  /** A leaf only ever seen as a literal null: present, with no value bytes. */
  private final class NullLeaf(level: Int, slot: Int) extends Leaf(level, slot) {
    protected def value(r: ColumnChunkReader): JValue = JNull
  }

  private final class Obj(level: Int, names: Array[String], children: Array[Node]) extends Node {
    val leaves: Array[Int] = children.flatMap(_.leaves)
    def read(rs: Array[ColumnChunkReader]): JValue = {
      var fields: Array[AnyRef] = null
      var n = 0
      var i = 0
      while (i < children.length) {
        val v = children(i).read(rs)
        if (v != null) {
          if (fields == null) fields = new Array[AnyRef](children.length - i)
          fields(n) = (names(i), v)
          n += 1
        }
        i += 1
      }
      if (fields != null) JObject(Json.vectorOf(fields, n))
      else if (deepest(rs) >= level) Empty
      else null
    }
  }

  /** `depth` is this array's delimiter value: the number of arrays above it. */
  private final class Arr(level: Int, slotLevel: Int, depth: Int, item: Node) extends Node {
    val leaves: Array[Int] = item.leaves

    def read(rs: Array[ColumnChunkReader]): JValue = {
      var i = 0
      while (i < leaves.length && !rs(leaves(i)).present) i += 1
      if (i == leaves.length) return null // no leaf in this component: absent, nothing to consume
      val driver = rs(leaves(i))
      val d = driver.peekDef()
      if (d < slotLevel) {
        // Missing, null or empty here: one terminal token per leaf.
        each(rs)
        if (d >= level) EmptyArr else null
      } else {
        val items = new scala.collection.immutable.VectorBuilder[JValue]
        var more = true
        while (more) {
          val v = item.read(rs)
          items += (if (v == null) JNull else v)
          if (driver.atEnd) more = false
          else {
            val e = driver.peekDef()
            // Entries of this array's elements lie above `depth`; a value at
            // or below it is a delimiter. A deeper one was consumed inside the
            // element; a shallower one belongs to an enclosing array.
            if (e <= depth) {
              if (e == depth) each(rs)
              more = false
            }
          }
        }
        JArray(items.result())
      }
    }

    /** Consumes one token of every leaf. */
    private def each(rs: Array[ColumnChunkReader]): Unit = {
      var i = 0
      while (i < leaves.length) { rs(leaves(i)).nextDef(); i += 1 }
    }
  }
  private val EmptyArr = JArray(Vector.empty)

  private final class Union(alternatives: Array[Node]) extends Node {
    val leaves: Array[Int] = alternatives.flatMap(_.leaves)
    def read(rs: Array[ColumnChunkReader]): JValue = {
      var found: JValue = null
      var i = 0
      while (i < alternatives.length) {
        val v = alternatives(i).read(rs)
        if (found == null) found = v
        i += 1
      }
      found
    }
  }
}
