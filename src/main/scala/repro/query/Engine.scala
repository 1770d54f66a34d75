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
    * accessors resolved against the schema once into typed slots, read
    * straight from the column readers on columnar layouts, filter-first;
    * typed kernels for comparisons with literals, MAX/MIN and UNNEST/SOME
    * over element sub-paths; operators fused up to the GROUP BY pipeline
    * breaker.
    */
  case object CodeGen extends ExecMode
}

object Engine {
  private val RootVar = "t"

  // ------------------------------------------------------- plan analysis

  private def allExprs(plan: PlanSpec): Seq[Expr] = plan.pipeline.flatMap(opExprs) ++ outputExprs(plan)

  private def opExprs(op: PipeOp): Seq[Expr] = op match {
    case FilterOp(p)    => Seq(p)
    case UnnestOp(a, _) => Seq(a)
    case AssignOp(_, e) => Seq(e)
  }

  private def conjuncts(e: Expr): Seq[Expr] = e match {
    case And(l, r) => conjuncts(l) ++ conjuncts(r)
    case other     => Seq(other)
  }

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
  private def rootPath(e: Expr): Option[List[String]] = Expr.pathBelow(e, RootVar)

  /** Zone-map predicate for AMAX leaf skipping (§4.4): conjuncts of the form
    * `t.field <op> literal` on scalar, non-union columns (on a double column
    * the upper bounds only).
    */
  def zonePredicate(ds: LsmDataset, plan: PlanSpec): AmaxLayout.ZonePredicate = {
    if (ds.layout != LayoutKind.Amax) return null
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
                    // A double column's min/max are kept with `<`/`>`, which
                    // pass over NaN, the largest double under Double.compare:
                    // they bound the column from above only.
                    val lo = if (m.tpe == AtomicType.TDouble) JNull else v
                    op match {
                      case ">" | ">=" => if (lo != JNull) ranges += ((m, lo, JNull))
                      case "<" | "<=" => ranges += ((m, JNull, v))
                      case "=="       => ranges += ((m, lo, v))
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

  private def varsIn(e: Expr): List[String] = e match {
    case Var(n)            => List(n)
    case Path(b, _)        => varsIn(b)
    case Lit(_)            => Nil
    case Cmp(_, l, r)      => varsIn(l) ++ varsIn(r)
    case And(l, r)         => varsIn(l) ++ varsIn(r)
    case Or(l, r)          => varsIn(l) ++ varsIn(r)
    case Func(_, as)       => as.flatMap(varsIn)
    case ExistsIn(a, _, p) => varsIn(a) ++ varsIn(p)
  }

  /** §5's compiled pipeline over typed slots. Every distinct accessor path
    * is a [[Slot]]: a record-rooted path, or a sub-path of the variable of
    * an UNNEST or SOME that is stepped element by element ([[Elements]]).
    * On a columnar tuple a path to an atomic leaf, or to a union of them,
    * is read typed from its column readers; another path is built by the
    * assembler from its projected leaves, and a path below another one walks
    * that one's value. A row-major tuple fills the same slots by walking its
    * decoded record.
    *
    * Record slots are filled late, just before the first filter conjunct
    * that reads them (all the rest before the first UNNEST or the
    * terminal), so a record a conjunct rejects has its other columns
    * skipped, never decoded. Kernels run on the slots: filter conjuncts
    * `slot <op> literal` ([[Slot.test]]), MAX/MIN into [[GroupTable]]'s
    * typed accumulators, and the stepped UNNEST/SOME. Everything else is an
    * [[Expr.compile]] closure over the boxed values of the slots it reads;
    * the pipeline up to the GROUP BY breaker is one chain of closures.
    */
  private def runCodeGen(ds: LsmDataset, plan: PlanSpec, projection: Array[Int],
                         scanIter: Iterator[ScanTuple]): QueryResult = {
    val asm = if (ds.layout.isColumnar) ds.assembler(projection) else null
    val exprs = allExprs(plan)
    val first = plan.pipeline.indexWhere(_.isInstanceOf[UnnestOp])
    val early = if (first < 0) plan.pipeline else plan.pipeline.take(first)

    // Stepped iterations: the first UNNEST and the SOMEs that are filter
    // conjuncts before it run once per record. One is stepped when its
    // array is a record-rooted path that no other path of the plan
    // overlaps, and its variable is bound once and used only through
    // sub-paths, all inside its scope.
    val bound = plan.pipeline.collect { case UnnestOp(_, v) => v; case AssignOp(v, _) => v } ++
      exprs.flatMap(existsVars)
    val recordUses = exprs.flatMap(Expr.pathUses(_, RootVar))
    def steppable(arr: Expr, v: String, scope: Seq[Expr]): Boolean = rootPath(arr).exists { p =>
      val uses = scope.flatMap(Expr.pathUses(_, v))
      p.nonEmpty && v != RootVar && bound.count(_ == v) == 1 && !uses.contains(Nil) &&
        uses.length == exprs.flatMap(Expr.pathUses(_, v)).length &&
        recordUses.count(q => q.startsWith(p) || p.startsWith(q)) == 1
    }
    val steppedSomes: Seq[ExistsIn] = early.flatMap {
      case FilterOp(p) => conjuncts(p).collect { case e @ ExistsIn(a, v, pred) if steppable(a, v, Seq(pred)) => e }
      case _           => Nil
    }
    val unnestScope = plan.pipeline.drop(first + 1).flatMap(opExprs) ++ outputExprs(plan)
    val steppedUnnest: Option[UnnestOp] = plan.pipeline.lift(first).collect {
      case u @ UnnestOp(a, v) if steppable(a, v, unnestScope) => u
    }
    val steppedArrays = (steppedSomes.map(_.arr) ++ steppedUnnest.map(_.arr)).flatMap(rootPath).toSet

    // Slots, and how a columnar tuple fills each, in fill order per root.
    val slotOf = mutable.LinkedHashMap.empty[(String, List[String]), Slot]
    val readOf = mutable.HashMap.empty[Slot, ColumnRead]
    val parentOf = mutable.HashMap.empty[Slot, Slot]
    def slotsFor(root: String, paths: Seq[List[String]], node: List[String] => SchemaNode): Seq[ColumnRead] =
      paths.distinct.sortBy(_.length).map { p =>
        val s = new Slot(s"$$${slotOf.size}", p.toArray)
        slotOf((root, p)) = s
        val read = paths.filter(q => q.length < p.length && p.startsWith(q)).sortBy(_.length).headOption match {
          case Some(q) =>
            parentOf(s) = slotOf((root, q))
            new ColumnRead.Below(s, slotOf((root, q)), p.drop(q.length).toArray)
          case None if root == RootVar && p.isEmpty              => new ColumnRead.Record(s)
          case None if root == RootVar && p == List(ds.pkField) => new ColumnRead.Key(s)
          case None                                             => ColumnRead.of(s, node(p), asm)
        }
        readOf(s) = read
        read
      }
    val recordReads = slotsFor(RootVar, recordUses.filterNot(steppedArrays), p => ds.schema.nodeAt(p).orNull)
    val recordSlots = recordReads.map(_.slot.name).toSet
    def elements(arr: Expr, v: String, scope: Seq[Expr]): Elements = {
      val p = rootPath(arr).get
      val an = if (asm == null) null else ds.schema.nodeAt(p) match {
        case Some(a: ArrayNode) => a
        case Some(u: UnionNode) => u.alternatives.get(Kind.Arr).collect { case a: ArrayNode => a }.orNull
        case _                  => null
      }
      val item = if (an == null) null else an.item
      val reads = slotsFor(v, scope.flatMap(Expr.pathUses(_, v)),
        q => if (item == null) null else Schema.nodeBelow(item, q).orNull)
      val leaves = if (item == null) Array.emptyIntArray else Schema.leavesUnder(item).map(asm.slot).filter(_ >= 0)
      val depth = if (leaves.isEmpty) 0 else asm.columns(leaves(0)).arrayLevels.indexOf(an.ownLevel)
      new Elements(p.toArray, if (an == null) 0 else an.slotLevel, depth, leaves, reads.toArray)
    }
    val someSteps = steppedSomes.map(e => e -> elements(e.arr, e.varName, Seq(e.pred))).toMap
    val unnestSteps = steppedUnnest.map(u => elements(u.arr, u.as, unnestScope))

    val numSlots = slotOf.size
    val slotByName = slotOf.valuesIterator.map(s => s.name -> s).toMap
    val names = (slotOf.valuesIterator.map(_.name).toSeq ++ bound).distinct.toArray
    val env = new Env(new Array[JValue](names.length), names)
    val cur = new Current(if (asm == null) 0 else asm.columns.length)

    def rewrite(e: Expr): Expr = e match {
      case Var(_) | Path(_, _) =>
        def rooted(x: Expr): Option[(String, List[String])] = x match {
          case Var(n)     => Some((n, Nil))
          case Path(b, f) => rooted(b).map { case (n, p) => (n, p :+ f) }
          case _          => None
        }
        rooted(e).flatMap(slotOf.get) match {
          case Some(s) => Var(s.name)
          case None    => e match { case Path(b, f) => Path(rewrite(b), f); case other => other }
        }
      case Cmp(op, l, r)      => Cmp(op, rewrite(l), rewrite(r))
      case And(l, r)          => And(rewrite(l), rewrite(r))
      case Or(l, r)           => Or(rewrite(l), rewrite(r))
      case Func(n, as)        => Func(n, as.map(rewrite))
      case ExistsIn(a, v, pr) => ExistsIn(rewrite(a), v, rewrite(pr))
      case other              => other
    }

    /** A closure over `e` (rewritten); the slots it reads box into `env`. */
    def closure(e: Expr): Env => JValue = {
      varsIn(e).foreach(n => slotByName.get(n).foreach(_.expose(env.slots, names.indexOf(n))))
      Expr.compile(e, names)
    }

    def test(c: Expr): () => Boolean = c match {
      case e: ExistsIn if someSteps.contains(e) =>
        val steps = someSteps(e)
        val pred = all(conjuncts(e.pred))
        () => steps.exists(cur, pred)
      case _ => rewrite(c) match {
        case Cmp(op, Var(n), Lit(lit)) if slotByName.contains(n) && Slot.test(op, slotByName(n), lit) != null =>
          Slot.test(op, slotByName(n), lit)
        case r =>
          val f = closure(r)
          () => Expr.truthy(f(env))
      }
    }
    def all(cs: Seq[Expr]): () => Boolean = {
      val ts = cs.map(test).toArray
      () => { var k = 0; while (k < ts.length && ts(k)()) k += 1; k == ts.length }
    }

    // Late materialization: the record slots each step fills first.
    val filled = mutable.Set.empty[Slot]
    def fills(es: Seq[Expr]): Array[ColumnRead] = {
      val out = mutable.ArrayBuffer.empty[ColumnRead]
      def need(s: Slot): Unit = if (!filled(s)) { parentOf.get(s).foreach(need); filled += s; out += readOf(s) }
      es.flatMap(Expr.pathUses(_, RootVar)).foreach(p => slotOf.get((RootVar, p)).foreach(need))
      out.toArray
    }
    def rest(): Array[ColumnRead] = { val r = recordReads.filterNot(s => filled(s.slot)).toArray; filled ++= r.map(_.slot); r }
    def fill(rs: Array[ColumnRead]): Unit = { var i = 0; while (i < rs.length) { cur.fill(rs(i)); i += 1 } }

    val g = plan.group
    val table = g.map(groupTable).orNull
    val outRows = mutable.ArrayBuffer.empty[Array[JValue]]

    val steps: Seq[(() => Unit) => () => Unit] = plan.pipeline.zipWithIndex.map {
      case (FilterOp(p), i) =>
        val cs = conjuncts(p)
        val fs = cs.map(c => if (first >= 0 && i > first) Array.empty[ColumnRead] else c match {
          case e: ExistsIn if someSteps.contains(e) => fills(Seq(e.pred))
          case other                                => fills(Seq(other))
        }).toArray
        val ts = cs.map(test).toArray
        (next: () => Unit) => () => {
          var k = 0
          var ok = true
          while (ok && k < ts.length) { fill(fs(k)); ok = ts(k)(); k += 1 }
          if (ok) next()
        }
      case (AssignOp(as, e), i) =>
        val fs = if (first >= 0 && i > first) Array.empty[ColumnRead] else fills(Seq(e))
        val f = closure(rewrite(e))
        val slot = names.indexOf(as)
        (next: () => Unit) => () => { fill(fs); env.slots(slot) = f(env); next() }
      case (UnnestOp(a, as), i) =>
        val fs = if (i == first) rest() else Array.empty[ColumnRead]
        if (i == first && unnestSteps.nonEmpty) {
          val steps = unnestSteps.get
          (next: () => Unit) => () => { fill(fs); steps.exists(cur, () => { next(); false }) }
        } else {
          val f = closure(rewrite(a))
          val slot = names.indexOf(as)
          (next: () => Unit) => () => {
            fill(fs)
            f(env) match {
              case JArray(xs) => xs.foreach { x => env.slots(slot) = x; next() }
              case _          => ()
            }
          }
        }
    }

    // The terminal: GROUP BY keys and aggregate arguments go straight into
    // the group's accumulators (COUNT evaluates no argument, MAX/MIN over a
    // slot offer its typed value), or the SELECT row is built.
    val lastFills = if (first < 0) rest() else Array.empty[ColumnRead]
    val terminal: () => Unit = g match {
      case Some(gs) =>
        val keyFs = gs.keys.map(k => closure(rewrite(k._2))).toArray
        val keys = new Array[JValue](keyFs.length) // reused: the table copies a new group's keys
        val aggs: Array[Int => Unit] = gs.aggs.zipWithIndex.map { case (ag, a) =>
          if (ag.kind == "count" || ag.expr == null) (grp: Int) => table.accumulate(a, grp, JNull)
          else rewrite(ag.expr) match {
            case Var(n) if slotByName.contains(n) =>
              val s = slotByName(n)
              (grp: Int) => s.tag match {
                case Slot.Long   => table.offerLong(a, grp, s.long)
                case Slot.Double => table.offerDouble(a, grp, s.double)
                case Slot.Str    => table.offerString(a, grp, s.ref.asInstanceOf[String])
                case Slot.Null   => ()
                case _           => table.offerOther(a, grp, s.ref.asInstanceOf[JValue])
              }
            case r =>
              val f = closure(r)
              (grp: Int) => table.accumulate(a, grp, f(env))
          }
        }.toArray
        // Keys that read record slots only are the same for every row of a
        // tuple: its group is looked up once, at its first row.
        val perTuple = gs.keys.forall(k => varsIn(rewrite(k._2)).forall(recordSlots))
        var groupOf: ScanTuple = null
        var group = 0
        () => {
          fill(lastFills)
          if (!perTuple || (groupOf ne cur.t)) {
            var i = 0
            while (i < keys.length) { keys(i) = keyFs(i)(env); i += 1 }
            group = table.groupOf(keys)
            groupOf = cur.t
          }
          var a = 0
          while (a < aggs.length) { aggs(a)(group); a += 1 }
        }
      case None =>
        val selFs = plan.select.map(s => closure(rewrite(s._2))).toArray
        () => { fill(lastFills); outRows += selFs.map(_(env)) }
    }
    val head = steps.foldRight(terminal)((step, next) => step(next))

    while (scanIter.hasNext) {
      val t = scanIter.next()
      if (!t.pruned) {
        cur.reset(t)
        java.util.Arrays.fill(env.slots.asInstanceOf[Array[AnyRef]], numSlots, names.length, JNull)
        head()
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
  * with it leave unchanged. A value [[accumulate]]s boxed is compared by
  * [[Expr.order]] itself. CodeGen's MAX/MIN over a typed slot offer its
  * value unboxed instead ([[offerLong]], [[offerDouble]], [[offerString]],
  * [[offerOther]]), kept as a kind tag and a `long` (a long, or a double's
  * bits) or the String or other value, and compared as [[Expr.order]]
  * does. An aggregate is fed one way or the other in a run.
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
  // COUNT: the count. Typed MAX/MIN: the long or the double's bits.
  private val nums = Array.fill(code.length)(new Array[Long](capacity))
  // Typed MAX/MIN: the kind of the value kept (KNone until the group sees
  // one), and the String or other JValue.
  private val held = Array.tabulate(code.length)(a => if (code(a) == Count) null else new Array[Byte](capacity))
  private val refs = Array.tabulate(code.length)(a => if (code(a) == Count) null else new Array[AnyRef](capacity))
  // Boxed MAX/MIN; null until the group sees a value.
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
  def accumulate(a: Int, g: Int, v: JValue): Unit =
    if (code(a) == Count) nums(a)(g) += 1
    else if (v ne JNull) {
      val acc = values(a)
      val cur = acc(g)
      if (cur == null) acc(g) = v
      else {
        val c = Expr.order(v, cur)
        if (wins(a, c)) acc(g) = v
      }
    }

  /** Folds a long into MAX/MIN `a` of group `g`. */
  def offerLong(a: Int, g: Int, x: Long): Unit = {
    val k = held(a)(g)
    val c = k match {
      case KLong   => java.lang.Long.compare(x, nums(a)(g))
      case KDouble => Expr.compareLongDouble(x, java.lang.Double.longBitsToDouble(nums(a)(g)))
      case _       => 0
    }
    if (k == KNone || wins(a, c)) { held(a)(g) = KLong; nums(a)(g) = x }
  }

  /** Folds a double into MAX/MIN `a` of group `g`. */
  def offerDouble(a: Int, g: Int, x: Double): Unit = {
    val k = held(a)(g)
    val c = k match {
      case KLong   => -Expr.compareLongDouble(nums(a)(g), x)
      case KDouble => java.lang.Double.compare(x, java.lang.Double.longBitsToDouble(nums(a)(g)))
      case _       => 0
    }
    if (k == KNone || wins(a, c)) { held(a)(g) = KDouble; nums(a)(g) = java.lang.Double.doubleToRawLongBits(x) }
  }

  /** Folds a string into MAX/MIN `a` of group `g`. */
  def offerString(a: Int, g: Int, x: String): Unit = {
    val k = held(a)(g)
    val c = k match {
      case KStr  => x.compareTo(refs(a)(g).asInstanceOf[String])
      case _     => 0
    }
    if (k == KNone || wins(a, c)) { held(a)(g) = KStr; refs(a)(g) = x }
  }

  /** Folds a boolean, array or object into MAX/MIN `a` of group `g`: only a
    * kept value of its own kind orders with it.
    */
  def offerOther(a: Int, g: Int, v: JValue): Unit = {
    val k = held(a)(g)
    val c = k match {
      case KOther => Expr.order(v, refs(a)(g).asInstanceOf[JValue])
      case _      => 0
    }
    if (k == KNone || wins(a, c)) { held(a)(g) = KOther; refs(a)(g) = v }
  }

  /** Whether a value that compares `c` against the kept one replaces it
    * ([[Expr.Incomparable]] never does).
    */
  private def wins(a: Int, c: Int): Boolean = if (code(a) == Max) c > 0 else c < 0 && c != Expr.Incomparable

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
        if (code(a) == Count) JLong(nums(a)(g))
        else held(a)(g) match {
          case KNone   => val v = values(a)(g); if (v == null) JNull else v
          case KLong   => JLong(nums(a)(g))
          case KDouble => JDouble(java.lang.Double.longBitsToDouble(nums(a)(g)))
          case KStr    => JString(refs(a)(g).asInstanceOf[String])
          case _       => refs(a)(g).asInstanceOf[JValue]
        }
      a += 1
    }
    row
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
      nums(a) = java.util.Arrays.copyOf(nums(a), capacity)
      if (code(a) != Count) {
        held(a) = java.util.Arrays.copyOf(held(a), capacity)
        refs(a) = java.util.Arrays.copyOf(refs(a), capacity)
        values(a) = java.util.Arrays.copyOf(values(a), capacity)
      }
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

  // The kind of a kept MAX/MIN value.
  private final val KNone: Byte = 0
  private final val KLong: Byte = 1
  private final val KDouble: Byte = 2
  private final val KStr: Byte = 3
  private final val KOther: Byte = 4

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
