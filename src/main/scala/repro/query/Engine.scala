package repro.query

import repro.core._
import repro.encoding.AtomicType
import repro.lsm._
import repro.lsm.layout.AmaxLayout
import scala.collection.mutable

sealed trait PipeOp
final case class FilterOp(pred: Expr) extends PipeOp
final case class UnnestOp(arr: Expr, as: String) extends PipeOp
final case class AssignOp(as: String, expr: Expr) extends PipeOp

final case class Agg(kind: String, expr: Expr, as: String) // kind: count | max | min
final case class GroupSpec(keys: Seq[(String, Expr)], aggs: Seq[Agg])

/** A query over one LSM dataset: a pipelining prefix (scan→assign→unnest→
  * filter→project), an optional GROUP BY pipeline breaker, then order/limit —
  * the plan shape of Figure 11.
  */
final case class PlanSpec(
    pipeline: List[PipeOp],
    group: Option[GroupSpec] = None,
    select: Seq[(String, Expr)] = Nil,
    orderBy: Option[(String, Boolean)] = None, // (output column, descending)
    limit: Option[Int] = None,
)

final case class QueryResult(columns: Seq[String], rows: Seq[Array[JValue]])

sealed trait ExecMode
object ExecMode {
  /** Hyracks-style: record at a time over fully assembled records, tree-
    * walking expression evaluation, tuples materialized between operators.
    */
  case object Interpreted extends ExecMode
  /** §5's code generation (Truffle substituted by closure specialization):
    * accessors resolved against the schema once, operators fused up to the
    * GROUP BY pipeline breaker, no record assembly on columnar layouts.
    */
  case object CodeGen extends ExecMode
}

object Engine {
  private val RootVar = "t"

  // ------------------------------------------------------- plan analysis

  private def allExprs(plan: PlanSpec): Seq[Expr] =
    plan.pipeline.flatMap {
      case FilterOp(p)    => Seq(p)
      case UnnestOp(a, _) => Seq(a)
      case AssignOp(_, e) => Seq(e)
    } ++ outputExprs(plan)

  /** The GROUP BY keys and aggregate arguments, and the SELECT list. */
  private def outputExprs(plan: PlanSpec): Seq[Expr] =
    plan.group.toSeq.flatMap(g => g.keys.map(_._2) ++ g.aggs.map(_.expr).filter(_ != null)) ++
      plan.select.map(_._2)

  /** Projection: global column ids needed by the plan, ascending; null =
    * whole record. A record-rooted path contributes the leaves under it,
    * except an array path that an [[UnnestOp]] or a SOME … IN … SATISFIES
    * iterates and the plan uses nowhere else: its variable's uses decide.
    * If the variable is used only through sub-paths (`r.temp`), the path
    * contributes the leaves under those sub-paths of its elements; if it is
    * not used at all, none. Either way it also contributes the array's
    * first leaf (lowest column id) to count the elements by: a component
    * that holds any leaf of the array holds that one, as column ids only
    * grow. A variable used whole takes every leaf under the array.
    */
  def neededColumns(ds: LsmDataset, plan: PlanSpec): Array[Int] = {
    val direct = mutable.Set.empty[List[String]]
    val iterated = mutable.ArrayBuffer.empty[(List[String], String)]
    def uses(e: Expr): Unit = e match {
      case ExistsIn(a, v, p) if v != RootVar && rootPath(a).nonEmpty =>
        iterated += ((rootPath(a).get, v)); uses(p)
      case ExistsIn(a, _, p) => uses(a); uses(p)
      case Cmp(_, l, r)      => uses(l); uses(r)
      case And(l, r)         => uses(l); uses(r)
      case Or(l, r)          => uses(l); uses(r)
      case Func(_, as)       => as.foreach(uses)
      case other             => direct ++= Expr.rootPaths(other, RootVar)
    }
    plan.pipeline.foreach {
      case UnnestOp(a, as) if as != RootVar && rootPath(a).nonEmpty => iterated += ((rootPath(a).get, as))
      case UnnestOp(a, _) => uses(a)
      case FilterOp(p)    => uses(p)
      case AssignOp(_, e) => uses(e)
    }
    outputExprs(plan).foreach(uses)
    if (direct.contains(Nil)) return null

    val schema = ds.schema
    val ids = mutable.SortedSet.empty[Int]
    direct.foreach { p => if (p != List(ds.pkField)) ids ++= schema.leavesUnderPath(p) }
    iterated.foreach { case (p, v) =>
      val all = schema.leavesUnderPath(p)
      val subs = allExprs(plan).flatMap(Expr.rootPaths(_, v)).toSet
      if (direct.contains(p) || subs.contains(Nil)) ids ++= all
      else {
        val elem = schema.nodeAt(p) match {
          case Some(an: ArrayNode) => Option(an.item)
          case Some(un: UnionNode) => un.alternatives.get(Kind.Arr).collect { case an: ArrayNode => an.item }
          case _                   => None
        }
        elem.foreach { item =>
          ids += Schema.leavesUnder(item).min
          subs.foreach(s => Schema.nodeBelow(item, s).foreach(n => ids ++= Schema.leavesUnder(n)))
        }
      }
    }
    ids.toArray
  }

  /** The record-rooted path `e` spells (`t` is Nil), if it is one. */
  private def rootPath(e: Expr): Option[List[String]] = e match {
    case Var(RootVar) => Some(Nil)
    case Path(b, f)   => rootPath(b).map(_ :+ f)
    case _            => None
  }

  /** Zone-map predicate for AMAX leaf skipping (§4.4): conjuncts of the form
    * `t.field <op> literal` on scalar, non-union columns.
    */
  def zonePredicate(ds: LsmDataset, plan: PlanSpec): AmaxLayout.ZonePredicate = {
    if (ds.layout != LayoutKind.Amax) return null
    def conjuncts(e: Expr): Seq[Expr] = e match {
      case And(l, r) => conjuncts(l) ++ conjuncts(r)
      case other     => Seq(other)
    }
    val ranges = mutable.ArrayBuffer.empty[(ColumnMeta, JValue, JValue)]
    // Only filters before any unnest still refer to whole-record ranges.
    plan.pipeline.takeWhile(!_.isInstanceOf[UnnestOp]).foreach {
      case FilterOp(pred) =>
        conjuncts(pred).foreach {
          case Cmp(op, p @ Path(_, _), Lit(v)) =>
            Expr.rootPaths(p, RootVar).headOption.foreach { path =>
              ds.schema.nodeAt(path) match {
                case Some(at: AtomicNode) if at.columnId >= 0 =>
                  val m = ds.schema.column(at.columnId)
                  if (m.arrayLevels.isEmpty && typeMatches(m.tpe, v)) {
                    op match {
                      case ">" | ">=" => ranges += ((m, v, JNull))
                      case "<" | "<=" => ranges += ((m, JNull, v))
                      case "=="       => ranges += ((m, v, v))
                      case _          => ()
                    }
                  }
                case _ => ()
              }
            }
          case _ => ()
        }
      case _ => ()
    }
    if (ranges.isEmpty) null else AmaxLayout.ZonePredicate(ranges.toSeq)
  }

  private def typeMatches(t: AtomicType, v: JValue): Boolean = (t, v) match {
    case (AtomicType.TLong, JLong(_)) => true
    case (AtomicType.TDouble, JDouble(_)) => true
    case (AtomicType.TString, JString(_)) => true
    case _ => false
  }

  // -------------------------------------------------------------- running

  def run(ds: LsmDataset, plan: PlanSpec, mode: ExecMode): QueryResult = {
    val projection = neededColumns(ds, plan)
    val scanIter = ds.scan(projection, zonePredicate(ds, plan))
    if (isPureCount(plan)) {
      var n = 0L
      while (scanIter.hasNext) { scanIter.next(); n += 1 }
      val g = plan.group.get
      finish(plan, g.aggs.map(_.as), Iterator.single(Array.fill[JValue](g.aggs.length)(JLong(n))))
    } else mode match {
      case ExecMode.Interpreted => runInterpreted(plan, scanIter)
      case ExecMode.CodeGen     => runCodeGen(ds, plan, projection, scanIter)
    }
  }

  /** COUNT(*)-only plans touch no value columns (AMAX: Page 0 only, §6.4.1). */
  private def isPureCount(plan: PlanSpec): Boolean =
    plan.pipeline.isEmpty && plan.select.isEmpty &&
      plan.group.exists(g => g.keys.isEmpty && g.aggs.forall(_.kind == "count"))

  private def groupTable(gs: GroupSpec): GroupTable = new GroupTable(gs.keys.length, gs.aggs.map(_.kind))

  /** The output of either engine: one row per group (a global aggregate
    * yields one row even over empty input), or the selected rows.
    */
  private def result(plan: PlanSpec, table: GroupTable, selected: Iterable[Array[JValue]]): QueryResult =
    plan.group match {
      case Some(gs) => finish(plan, gs.keys.map(_._1) ++ gs.aggs.map(_.as), table.rows)
      case None     => finish(plan, plan.select.map(_._1), selected.iterator)
    }

  /** ORDER BY … LIMIT. Rows are ordered by the order column under
    * [[Expr.ValueOrder]], flipped under DESC (so NULLs come last), and ties
    * are broken by comparing all columns left to right under ValueOrder, so
    * the output does not depend on the order rows arrive in. With a LIMIT k
    * a heap keeps the k best rows seen so far (O(n log k)), and only those
    * are sorted.
    */
  private[query] def finish(plan: PlanSpec, cols: Seq[String], rows: Iterator[Array[JValue]]): QueryResult = {
    val k = plan.limit.getOrElse(Int.MaxValue)
    if (k <= 0) return QueryResult(cols, Nil)
    plan.orderBy match {
      case None => QueryResult(cols, rows.take(k).toSeq)
      case Some((col, desc)) =>
        val i = cols.indexOf(col)
        require(i >= 0, s"ORDER BY column $col is not an output column (${cols.mkString(",")})")
        val order: Ordering[Array[JValue]] = (a, b) => {
          val c = Expr.ValueOrder.compare(a(i), b(i))
          if (c != 0) { if (desc) -c else c }
          else {
            var j = 0
            var t = 0
            while (t == 0 && j < a.length) { t = Expr.ValueOrder.compare(a(j), b(j)); j += 1 }
            t
          }
        }
        val kept =
          if (plan.limit.isEmpty) rows.toArray
          else {
            // The head is the worst row kept; a row enters only if it beats it.
            val heap = new java.util.PriorityQueue[Array[JValue]](order.reverse)
            rows.foreach { r =>
              if (heap.size < k) heap.add(r)
              else if (order.compare(r, heap.peek) < 0) { heap.poll(); heap.add(r) }
            }
            heap.toArray(new Array[Array[JValue]](0))
          }
        java.util.Arrays.sort(kept, order)
        QueryResult(cols, kept.toSeq)
    }
  }

  // --------------------------------------------------- interpreted engine

  private def runInterpreted(plan: PlanSpec, scanIter: Iterator[ScanTuple]): QueryResult = {
    val varNames = RootVar :: plan.pipeline.collect {
      case UnnestOp(_, as) => as
      case AssignOp(as, _) => as
    } ::: allExprs(plan).toList.flatMap(existsVars)
    val names = varNames.distinct.toArray

    // Batch-at-a-time with materialization between operators (the Hyracks
    // model §5 starts from): each operator consumes a buffer of env rows and
    // produces a new buffer.
    val g = plan.group
    val table = g.map(groupTable).orNull
    val outRows = mutable.ArrayBuffer.empty[Array[JValue]]
    val batch = mutable.ArrayBuffer.empty[Array[JValue]]

    def flushBatch(): Unit = {
      var rows: mutable.ArrayBuffer[Array[JValue]] = batch
      plan.pipeline.foreach { op =>
        val next = mutable.ArrayBuffer.empty[Array[JValue]]
        op match {
          case FilterOp(p) =>
            rows.foreach { r => if (Expr.truthy(Expr.eval(p, new Env(r, names)))) next += r.clone() }
          case AssignOp(as, e) =>
            val slot = names.indexOf(as)
            rows.foreach { r => val c = r.clone(); c(slot) = Expr.eval(e, new Env(c, names)); next += c }
          case UnnestOp(a, as) =>
            val slot = names.indexOf(as)
            rows.foreach { r =>
              Expr.eval(a, new Env(r, names)) match {
                case JArray(xs) => xs.foreach { x => val c = r.clone(); c(slot) = x; next += c }
                case _          => ()
              }
            }
        }
        rows = next
      }
      rows.foreach { r =>
        val env = new Env(r, names)
        g match {
          case Some(gs) =>
            val key = gs.keys.map(k => Expr.eval(k._2, env)).toArray
            val vals = gs.aggs.map(a => if (a.expr == null) JNull else Expr.eval(a.expr, env)).toArray
            table.update(key, vals)
          case None =>
            outRows += plan.select.map(s => Expr.eval(s._2, env)).toArray
        }
      }
      batch.clear()
    }

    while (scanIter.hasNext) {
      val t = scanIter.next()
      if (!t.pruned) {
        val row = new Array[JValue](names.length)
        java.util.Arrays.fill(row.asInstanceOf[Array[AnyRef]], JNull)
        row(0) = t.record()
        batch += row
        if (batch.length >= 1024) flushBatch()
      }
    }
    flushBatch()

    result(plan, table, outRows)
  }

  /** The value at `path` below `v`: NULL where an object lacks the field or
    * a non-object is in the way.
    */
  private def walk(v: JValue, path: Array[String]): JValue = {
    var cur = v
    var i = 0
    while (i < path.length) {
      cur = cur match { case o: JObject => o.get(path(i)).getOrElse(JNull); case _ => JNull }
      i += 1
    }
    cur
  }

  private def existsVars(e: Expr): List[String] = e match {
    case ExistsIn(a, v, p) => v :: existsVars(a) ::: existsVars(p)
    case Cmp(_, l, r)      => existsVars(l) ::: existsVars(r)
    case And(l, r)         => existsVars(l) ::: existsVars(r)
    case Or(l, r)          => existsVars(l) ::: existsVars(r)
    case Func(_, as)       => as.flatMap(existsVars)
    case Path(b, _)        => existsVars(b)
    case _                 => Nil
  }

  // ------------------------------------------------------ compiled engine

  private def runCodeGen(ds: LsmDataset, plan: PlanSpec, projection: Array[Int],
                         scanIter: Iterator[ScanTuple]): QueryResult = {
    // Distinct record-rooted paths become pre-resolved accessor slots. A path
    // with no proper prefix among them is a read root: on columnar tuples it
    // is assembled straight from the column readers, its projected leaves
    // only (§5: no record assembly). A longer path walks its root's value, so
    // each leaf is read once per tuple. Row-major tuples walk the record.
    val paths = allExprs(plan).flatMap(Expr.rootPaths(_, RootVar)).toSet.toVector
    val pathSlots = paths.indices.map(i => s"$$p$i").toVector
    val pathIndex: Map[List[String], Int] = paths.zipWithIndex.toMap
    val roots = paths.filter(p => !paths.exists(q => q.length < p.length && p.startsWith(q))).toArray
    val rootOf = paths.map(p => roots.indexWhere(r => p.startsWith(r))).toArray
    val rest = paths.indices.map(i => paths(i).drop(roots(rootOf(i)).length).toArray).toArray
    val pk = List(ds.pkField)
    val asm = if (ds.layout.isColumnar) ds.assembler(projection) else null
    val columnReads: Array[Assembler.Node] = roots.map { r =>
      if (asm == null || r.isEmpty || r == pk) null else ds.schema.nodeAt(r).map(asm.at).orNull
    }
    val readsColumns = asm != null && !roots.contains(Nil)
    val isPk = roots.map(_ == pk)
    val rootSegs = roots.map(_.toArray)
    val rootVals = new Array[JValue](roots.length)

    def readRoots(t: ScanTuple): Unit = {
      val rs = if (readsColumns) t.readers() else null
      var j = 0
      while (j < roots.length) {
        rootVals(j) =
          if (isPk(j)) JLong(t.key)
          else if (rs == null) walk(t.record(), rootSegs(j))
          else {
            val n = columnReads(j)
            val v = if (n == null) null else n.read(rs)
            if (v == null) JNull else v
          }
        j += 1
      }
    }

    // Rewrite exprs: maximal record-rooted paths → accessor-slot variables.
    def rewrite(e: Expr): Expr = e match {
      case p @ (Path(_, _) | Var(RootVar)) =>
        rootPath(p) match {
          case Some(path) if pathIndex.contains(path) => Var(pathSlots(pathIndex(path)))
          case _ => p match {
            case Path(b, f) => Path(rewrite(b), f)
            case other      => other
          }
        }
      case Cmp(op, l, r)   => Cmp(op, rewrite(l), rewrite(r))
      case And(l, r)       => And(rewrite(l), rewrite(r))
      case Or(l, r)        => Or(rewrite(l), rewrite(r))
      case Func(n, as)     => Func(n, as.map(rewrite))
      case ExistsIn(a, v, pr) => ExistsIn(rewrite(a), v, rewrite(pr))
      case other           => other
    }

    val extraVars = plan.pipeline.collect {
      case UnnestOp(_, as) => as
      case AssignOp(as, _) => as
    } ++ plan.pipeline.collect { case FilterOp(p) => existsVars(p) }.flatten ++
      plan.group.toSeq.flatMap(g => (g.keys.map(_._2) ++ g.aggs.map(_.expr).filter(_ != null)).flatMap(existsVars)) ++
      plan.select.map(_._2).flatMap(existsVars)
    val names = (pathSlots ++ extraVars).distinct.toArray

    val g = plan.group
    val table = g.map(groupTable).orNull
    val outRows = mutable.ArrayBuffer.empty[Array[JValue]]

    // Fuse the pipeline into one closure chain ending at the group operator
    // (the pipeline breaker stays a regular operator, as in Figure 11): keys
    // and aggregate arguments are evaluated straight into the group's
    // accumulators. COUNT ignores its argument, so it is not evaluated.
    val terminal: Env => Unit = g match {
      case Some(gs) =>
        val keyFs = gs.keys.map(k => Expr.compile(rewrite(k._2), names)).toArray
        val aggFs = gs.aggs.map(a =>
          if (a.kind == "count" || a.expr == null) null else Expr.compile(rewrite(a.expr), names)).toArray
        val keys = new Array[JValue](keyFs.length) // reused: the table copies a new group's keys
        env => {
          var i = 0
          while (i < keys.length) { keys(i) = keyFs(i)(env); i += 1 }
          val group = table.groupOf(keys)
          var a = 0
          while (a < aggFs.length) {
            val f = aggFs(a)
            table.accumulate(a, group, if (f == null) JNull else f(env))
            a += 1
          }
        }
      case None =>
        val selFs = plan.select.map(s => Expr.compile(rewrite(s._2), names)).toArray
        env => outRows += selFs.map(_(env))
    }

    val fused: Env => Unit = plan.pipeline.reverse.foldLeft(terminal) { (next, op) =>
      op match {
        case FilterOp(p) =>
          val f = Expr.compile(rewrite(p), names)
          env => if (Expr.truthy(f(env))) next(env)
        case AssignOp(as, e) =>
          val f = Expr.compile(rewrite(e), names)
          val slot = names.indexOf(as)
          env => { env.slots(slot) = f(env); next(env) }
        case UnnestOp(a, as) =>
          val f = Expr.compile(rewrite(a), names)
          val slot = names.indexOf(as)
          env => f(env) match {
            case JArray(xs) => xs.foreach { x => env.slots(slot) = x; next(env) }
            case _          => ()
          }
      }
    }

    val slots = new Array[JValue](names.length)
    val env = new Env(slots, names)
    while (scanIter.hasNext) {
      val t = scanIter.next()
      if (!t.pruned) {
        readRoots(t)
        var i = 0
        while (i < paths.length) { slots(i) = walk(rootVals(rootOf(i)), rest(i)); i += 1 }
        java.util.Arrays.fill(slots.asInstanceOf[Array[AnyRef]], paths.length, slots.length, JNull)
        fused(env)
      }
    }

    result(plan, table, outRows)
  }
}

/** GROUP BY's hash-aggregation table, which both engines feed. Groups are
  * numbered in the order their keys first arrive, and [[rows]] returns them
  * in that order. Keys are equal as [[JValue]]s are, except that NaN equals
  * NaN: 1 and 1.0 are two groups, -0.0 and 0.0 one (the first-seen key is
  * kept). A one-key plan probes with the key value itself, only a multi-key
  * plan with an array of them, and a global aggregate (no key) has its one
  * group from the start and never hashes, so it yields one row even over
  * empty input.
  *
  * Each aggregate keeps a column of accumulators indexed by group: COUNT a
  * `long`, MAX/MIN a value that NULL and values [[Expr.order]] cannot order
  * with it leave unchanged.
  */
private[query] final class GroupTable(numKeys: Int, kinds: Seq[String]) {
  import GroupTable._

  private val code: Array[Int] = kinds.map {
    case "count" => Count
    case "max"   => Max
    case "min"   => Min
    case k       => throw new IllegalArgumentException(s"unknown aggregate $k")
  }.toArray
  private var capacity = if (numKeys == 0) 1 else 16
  private var size = if (numKeys == 0) 1 else 0
  // Per group: its key (a JValue, or an Array[JValue] when numKeys > 1) and hash.
  private var groupKeys = new Array[AnyRef](capacity)
  private var hashes = new Array[Int](capacity)
  // Open addressing with linear probing, at most half full: group + 1, 0 = free.
  private var slots = new Array[Int](2 * capacity)
  private val counts = Array.tabulate(code.length)(a => if (code(a) == Count) new Array[Long](capacity) else null)
  // MAX/MIN accumulators; null until the group sees a value.
  private val values = Array.tabulate(code.length)(a => if (code(a) == Count) null else new Array[JValue](capacity))

  /** The group of one row's key values, added on first sight. A multi-key
    * array is copied then, so the caller may reuse it.
    */
  def groupOf(keys: Array[JValue]): Int =
    if (numKeys == 0) 0
    else if (numKeys == 1) find(keys(0), spread(keyHash(keys(0))))
    else {
      var h = 1
      var i = 0
      while (i < numKeys) { h = 31 * h + keyHash(keys(i)); i += 1 }
      find(keys, spread(h))
    }

  /** Folds `v` into aggregate `a` of group `g` (COUNT ignores `v`). */
  def accumulate(a: Int, g: Int, v: JValue): Unit = code(a) match {
    case Count => counts(a)(g) += 1
    case Max   => offer(values(a), g, v, max = true)
    case _     => offer(values(a), g, v, max = false)
  }

  /** One row's materialized keys and aggregate arguments. */
  def update(keys: Array[JValue], vals: Array[JValue]): Unit = {
    val g = groupOf(keys)
    var a = 0
    while (a < vals.length) { accumulate(a, g, vals(a)); a += 1 }
  }

  /** One row per group, built now: the keys, then the aggregates. */
  def rows: Iterator[Array[JValue]] = Iterator.range(0, size).map { g =>
    val row = new Array[JValue](numKeys + code.length)
    if (numKeys == 1) row(0) = groupKeys(g).asInstanceOf[JValue]
    else if (numKeys > 1) System.arraycopy(groupKeys(g), 0, row, 0, numKeys)
    var a = 0
    while (a < code.length) {
      row(numKeys + a) =
        if (code(a) == Count) JLong(counts(a)(g))
        else { val v = values(a)(g); if (v == null) JNull else v }
      a += 1
    }
    row
  }

  private def offer(acc: Array[JValue], g: Int, v: JValue, max: Boolean): Unit =
    if (v ne JNull) {
      val cur = acc(g)
      if (cur == null) acc(g) = v
      else {
        val c = Expr.order(v, cur)
        if (c != Expr.Incomparable && (if (max) c > 0 else c < 0)) acc(g) = v
      }
    }

  private def find(key: AnyRef, h: Int): Int = {
    val mask = slots.length - 1
    var i = h & mask
    var s = slots(i)
    while (s != 0) {
      val g = s - 1
      if (hashes(g) == h && sameKey(groupKeys(g), key)) return g
      i = (i + 1) & mask
      s = slots(i)
    }
    if (size == capacity) { grow(); i = freeSlot(h) }
    val g = size
    size += 1
    groupKeys(g) = if (numKeys == 1) key else key.asInstanceOf[Array[JValue]].clone()
    hashes(g) = h
    slots(i) = g + 1
    g
  }

  private def sameKey(a: AnyRef, b: AnyRef): Boolean =
    if (numKeys == 1) keyEquals(a.asInstanceOf[JValue], b.asInstanceOf[JValue])
    else {
      val x = a.asInstanceOf[Array[JValue]]
      val y = b.asInstanceOf[Array[JValue]]
      var i = 0
      while (i < numKeys && keyEquals(x(i), y(i))) i += 1
      i == numKeys
    }

  private def freeSlot(h: Int): Int = {
    val mask = slots.length - 1
    var i = h & mask
    while (slots(i) != 0) i = (i + 1) & mask
    i
  }

  private def grow(): Unit = {
    capacity *= 2
    groupKeys = java.util.Arrays.copyOf(groupKeys, capacity)
    hashes = java.util.Arrays.copyOf(hashes, capacity)
    var a = 0
    while (a < code.length) {
      if (counts(a) != null) counts(a) = java.util.Arrays.copyOf(counts(a), capacity)
      else values(a) = java.util.Arrays.copyOf(values(a), capacity)
      a += 1
    }
    slots = new Array[Int](2 * capacity)
    var g = 0
    while (g < size) { slots(freeSlot(hashes(g))) = g + 1; g += 1 }
  }
}

private[query] object GroupTable {
  private final val Count = 0
  private final val Max = 1
  private final val Min = 2

  /** Group-key equality: [[JValue]] equality, except that NaN equals NaN,
    * also inside arrays and objects.
    */
  def keyEquals(a: JValue, b: JValue): Boolean = a match {
    case JLong(x)   => b match { case JLong(y) => x == y; case _ => false }
    case JString(x) => b match { case JString(y) => x == y; case _ => false }
    case JDouble(x) => b match { case JDouble(y) => x == y || (x.isNaN && y.isNaN); case _ => false }
    case JArray(xs) => b match {
      case JArray(ys) => xs.length == ys.length && xs.lazyZip(ys).forall(keyEquals)
      case _          => false
    }
    case JObject(fs) => b match {
      case JObject(gs) =>
        fs.length == gs.length && fs.lazyZip(gs).forall((f, g) => f._1 == g._1 && keyEquals(f._2, g._2))
      case _ => false
    }
    case _ => a == b
  }

  /** A hash consistent with [[keyEquals]]: -0.0 and 0.0 hash alike, and so
    * does every NaN (`hashCode` goes through `doubleToLongBits`, also for
    * the doubles inside arrays and objects).
    */
  private def keyHash(v: JValue): Int = v match {
    case JLong(x)   => java.lang.Long.hashCode(x)
    case JString(s) => s.hashCode
    case JDouble(d) => if (d == 0.0) 0 else java.lang.Double.hashCode(d)
    case other      => other.hashCode
  }

  private def spread(h: Int): Int = { val x = h * 0x9E3779B9; x ^ (x >>> 16) }
}
