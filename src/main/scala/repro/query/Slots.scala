package repro.query

import repro.core._
import repro.encoding.AtomicType
import repro.lsm.ScanTuple

/** A typed slot: the value of one accessor path in the current tuple (or
  * array element), kept unboxed. `tag` says which field holds it: a long, a
  * double, a String, or any other value (a boolean, array or object) as a
  * [[JValue]]; [[Slot.Null]] stands for a missing or NULL value. Kernels
  * read the fields; closures read the boxed value from their [[Env]], which
  * the slot writes on every set once [[expose]] has given it a place there.
  */
private[query] final class Slot(val name: String, val path: Array[String]) {
  import Slot._
  var tag: Int = Null
  var long: Long = 0L
  var double: Double = 0.0
  var ref: AnyRef = _
  private var env: Array[JValue] = _
  private var envSlot = -1

  /** Closures read this slot: from now on every set boxes into `env(i)`. */
  def expose(env: Array[JValue], i: Int): Unit = { this.env = env; envSlot = i }

  def setNull(): Unit = { tag = Null; if (env != null) env(envSlot) = JNull }
  def setLong(x: Long): Unit = { tag = Long; long = x; if (env != null) env(envSlot) = JLong(x) }
  def setDouble(x: Double): Unit = { tag = Double; double = x; if (env != null) env(envSlot) = JDouble(x) }
  def setString(x: String): Unit = { tag = Str; ref = x; if (env != null) env(envSlot) = JString(x) }

  def set(v: JValue): Unit = {
    v match {
      case JLong(x)   => tag = Long; long = x
      case JDouble(x) => tag = Double; double = x
      case JString(x) => tag = Str; ref = x
      case JNull      => tag = Null
      case other      => tag = Other; ref = other
    }
    if (env != null) env(envSlot) = v
  }

  /** The value, boxed. */
  def value: JValue = tag match {
    case Null   => JNull
    case Long   => JLong(long)
    case Double => JDouble(double)
    case Str    => JString(ref.asInstanceOf[String])
    case _      => ref.asInstanceOf[JValue]
  }
}

private[query] object Slot {
  final val Null = 0
  final val Long = 1
  final val Double = 2
  final val Str = 3
  final val Other = 4

  /** The value at `path` below `v`: NULL where an object lacks the field or
    * a non-object is in the way.
    */
  def walk(v: JValue, path: Array[String]): JValue = {
    var cur = v
    var i = 0
    while (i < path.length) {
      cur = cur match { case o: JObject => o.get(path(i)).getOrElse(JNull); case _ => JNull }
      i += 1
    }
    cur
  }

  /** `slot <op> lit` as a filter reads [[Expr.compare]]'s answer (TRUE or
    * not), for a long, double or string literal; null for any other
    * literal. A value [[Expr.order]] cannot order with the literal, a missing
    * or NULL one included, satisfies `!=` only.
    */
  def test(op: String, s: Slot, lit: JValue): () => Boolean = {
    val o = op match {
      case ">" => Gt; case ">=" => Ge; case "<" => Lt; case "<=" => Le; case "==" => Eq; case "!=" => Ne
    }
    lit match {
      case JLong(x) => () => holds(o, s.tag match {
        case Long   => java.lang.Long.compare(s.long, x)
        case Double => -Expr.compareLongDouble(x, s.double)
        case _      => Expr.Incomparable
      })
      case JDouble(x) => () => holds(o, s.tag match {
        case Long   => Expr.compareLongDouble(s.long, x)
        case Double => java.lang.Double.compare(s.double, x)
        case _      => Expr.Incomparable
      })
      case JString(x) => () => holds(o, if (s.tag == Str) s.ref.asInstanceOf[String].compareTo(x) else Expr.Incomparable)
      case _ => null
    }
  }

  private final val Gt = 0
  private final val Ge = 1
  private final val Lt = 2
  private final val Le = 3
  private final val Eq = 4
  private final val Ne = 5

  private def holds(op: Int, c: Int): Boolean =
    if (c == Expr.Incomparable) op == Ne
    else (op: @scala.annotation.switch) match {
      case Gt => c > 0
      case Ge => c >= 0
      case Lt => c < 0
      case Le => c <= 0
      case Eq => c == 0
      case _  => c != 0
    }
}

/** How a columnar tuple fills one slot from its column readers. Reader
  * slots index `rs`, which the caller has positioned at the value: a record
  * for a record-rooted path, an array element for an element's sub-path.
  */
private[query] sealed abstract class ColumnRead(val slot: Slot) {
  /** The reader slots whose tokens for this value the read consumes. */
  def readers: Array[Int]
  def read(rs: Array[ColumnChunkReader], t: ScanTuple): Unit
}

private[query] object ColumnRead {
  /** The read of the value at `node` (null: not in the schema). An atomic
    * leaf, or a union of atomic leaves, is read typed: each alternative's
    * def level, then the value of the one present. Anything else is built by
    * the assembler from its projected leaves. A row-major dataset (no
    * `asm`) reads no columns: its slots only walk records.
    */
  def of(slot: Slot, node: SchemaNode, asm: Assembler): ColumnRead = {
    val alternatives = if (asm == null) null else node match {
      case at: AtomicNode => Seq(at)
      case un: UnionNode if un.alternatives.valuesIterator.forall(_.isInstanceOf[AtomicNode]) =>
        un.alternatives.valuesIterator.collect { case at: AtomicNode => at }.toSeq
      case _ => null
    }
    if (alternatives != null) {
      val kept = alternatives.filter(at => asm.slot(at.columnId) >= 0)
      new Leaves(slot, kept.map(at => asm.slot(at.columnId)).toArray, kept.map(_.ownLevel).toArray,
        kept.map(_.tpe).toArray)
    } else new Subtree(slot, if (node == null || asm == null) null else asm.at(node))
  }

  private final class Leaves(slot: Slot, val readers: Array[Int], levels: Array[Int], types: Array[AtomicType])
      extends ColumnRead(slot) {
    def read(rs: Array[ColumnChunkReader], t: ScanTuple): Unit = {
      var present = false
      var i = 0
      while (i < readers.length) {
        val r = rs(readers(i))
        // At most one alternative is present (§3.2.2); the first one wins.
        if (r.nextDef() == levels(i)) {
          types(i) match {
            case AtomicType.TLong   => val x = r.readLong(); if (!present) slot.setLong(x)
            case AtomicType.TDouble => val x = r.readDouble(); if (!present) slot.setDouble(x)
            case AtomicType.TString => val x = r.readString(); if (!present) slot.setString(x)
            case AtomicType.TBool   => val x = r.readBool(); if (!present) slot.set(JBool(x))
            case AtomicType.TNull   => if (!present) slot.setNull()
          }
          present = true
        }
        i += 1
      }
      if (!present) slot.setNull()
    }
  }

  private final class Subtree(slot: Slot, node: Assembler.Node) extends ColumnRead(slot) {
    val readers: Array[Int] = if (node == null) Array.emptyIntArray else node.leaves
    def read(rs: Array[ColumnChunkReader], t: ScanTuple): Unit =
      if (node == null) slot.setNull()
      else { val v = node.read(rs); slot.set(if (v == null) JNull else v) }
  }

  /** A path below another read path: walks that path's value. */
  final class Below(slot: Slot, parent: Slot, rest: Array[String]) extends ColumnRead(slot) {
    val readers: Array[Int] = Array.emptyIntArray
    def read(rs: Array[ColumnChunkReader], t: ScanTuple): Unit = slot.set(Slot.walk(parent.value, rest))
  }

  /** The primary key, which columnar components keep apart from the columns. */
  final class Key(slot: Slot) extends ColumnRead(slot) {
    val readers: Array[Int] = Array.emptyIntArray
    def read(rs: Array[ColumnChunkReader], t: ScanTuple): Unit = slot.setLong(t.key)
  }

  /** The whole record, which every other record path walks. */
  final class Record(slot: Slot) extends ColumnRead(slot) {
    val readers: Array[Int] = Array.emptyIntArray
    def read(rs: Array[ColumnChunkReader], t: ScanTuple): Unit = slot.set(t.record())
  }
}

/** The tuple the pipeline is on. A columnar tuple's readers are positioned
  * one at a time as reads ask for them; a row-major tuple is decoded once,
  * when a slot first needs it, and its slots walk the decoded record.
  */
private[query] final class Current(numReaders: Int) {
  var t: ScanTuple = _
  var columnar = false
  private var rec: JObject = _
  val rs = new Array[ColumnChunkReader](numReaders)

  def reset(tuple: ScanTuple): Unit = { t = tuple; columnar = tuple.columnar; rec = null }

  def record: JObject = { if (rec == null) rec = t.record(); rec }

  /** Positions the readers `slots` at this tuple's record. */
  def position(slots: Array[Int]): Unit = {
    var i = 0
    while (i < slots.length) { rs(slots(i)) = t.reader(slots(i)); i += 1 }
  }

  /** Fills one record-rooted slot. */
  def fill(read: ColumnRead): Unit =
    if (columnar) { position(read.readers); read.read(rs, t) }
    else read.slot.set(Slot.walk(record, read.slot.path))
}

/** UNNEST or SOME … SATISFIES over a record-rooted array whose variable the
  * plan uses only through sub-paths: the elements are stepped through with
  * no array or element value built. On a columnar tuple the def levels and
  * delimiters of one driver leaf (the first projected leaf under the element
  * that the component holds) find each element's end, as the assembler's
  * arrays do; per element, `reads` fill the sub-path slots and every other
  * projected leaf under the element skips the element's tokens. A row-major
  * tuple walks its record to the array.
  *
  * `leaves` are the reader slots of every projected leaf under the element;
  * `depth` is the array's delimiter value; `reads` come in fill order.
  */
private[query] final class Elements(path: Array[String], slotLevel: Int, depth: Int,
                                    leaves: Array[Int], reads: Array[ColumnRead]) {
  private val skipped: Array[Int] = leaves.filterNot(l => reads.exists(_.readers.contains(l)))
  private val slots = reads.map(_.slot)

  /** Runs `body` on each element in turn until it returns true; false when
    * none did. The record's tokens of every leaf are consumed either way.
    */
  def exists(cur: Current, body: () => Boolean): Boolean =
    if (cur.columnar) stepColumns(cur, body)
    else Slot.walk(cur.record, path) match {
      case JArray(xs) =>
        val it = xs.iterator
        var found = false
        while (!found && it.hasNext) {
          val x = it.next()
          var i = 0
          while (i < slots.length) { slots(i).set(Slot.walk(x, slots(i).path)); i += 1 }
          found = body()
        }
        found
      case _ => false
    }

  private def stepColumns(cur: Current, body: () => Boolean): Boolean = {
    if (leaves.isEmpty) return false // no element was ever seen: no leaf to step by
    cur.position(leaves)
    val rs = cur.rs
    var i = 0
    while (i < leaves.length && !rs(leaves(i)).present) i += 1
    if (i == leaves.length) return false // no leaf in this component: the array is absent
    val driver = rs(leaves(i))
    if (driver.peekDef() < slotLevel) { each(rs); return false } // missing, null or empty
    var found = false
    var more = true
    while (more) {
      if (found) { i = 0; while (i < leaves.length) { rs(leaves(i)).skipItem(depth); i += 1 } }
      else {
        i = 0
        while (i < reads.length) { reads(i).read(rs, cur.t); i += 1 }
        i = 0
        while (i < skipped.length) { rs(skipped(i)).skipItem(depth); i += 1 }
        found = body()
      }
      if (driver.atEnd) more = false
      else {
        val e = driver.peekDef()
        // Entries of the next element lie above `depth`; a delimiter of this
        // array ends it (one per leaf), a shallower one belongs to the record.
        if (e <= depth) {
          if (e == depth) each(rs)
          more = false
        }
      }
    }
    found
  }

  /** Consumes one token of every leaf. */
  private def each(rs: Array[ColumnChunkReader]): Unit = {
    var i = 0
    while (i < leaves.length) { rs(leaves(i)).nextDef(); i += 1 }
  }
}
