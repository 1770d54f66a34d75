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
    } ++ plan.group.toSeq.flatMap(g => g.keys.map(_._2) ++ g.aggs.map(_.expr).filter(_ != null)) ++
      plan.select.map(_._2)

  /** Projection: global column ids needed by the plan; null = whole record. */
  def neededColumns(ds: LsmDataset, plan: PlanSpec): Array[Int] = {
    val paths = allExprs(plan).flatMap(Expr.rootPaths(_, RootVar)).toSet
    if (paths.contains(Nil)) return null
    val ids = mutable.SortedSet.empty[Int]
    paths.foreach { p =>
      if (p != List(ds.pkField)) ids ++= ds.schema.leavesUnderPath(p)
    }
    ids.toArray
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
    val scanIter = ds.scan(neededColumns(ds, plan), zonePredicate(ds, plan))
    if (isPureCount(plan)) {
      var n = 0L
      while (scanIter.hasNext) { scanIter.next(); n += 1 }
      val g = plan.group.get
      finish(plan, g.aggs.map(_.as), Iterator.single(Array.fill[JValue](g.aggs.length)(JLong(n))))
    } else mode match {
      case ExecMode.Interpreted => runInterpreted(plan, scanIter)
      case ExecMode.CodeGen     => runCodeGen(ds, plan, scanIter)
    }
  }

  /** COUNT(*)-only plans touch no value columns (AMAX: Page 0 only, §6.4.1). */
  private def isPureCount(plan: PlanSpec): Boolean =
    plan.pipeline.isEmpty && plan.select.isEmpty &&
      plan.group.exists(g => g.keys.isEmpty && g.aggs.forall(_.kind == "count"))

  private type GroupTable = mutable.LinkedHashMap[Vector[JValue], Array[JValue]]

  /** Aggregates of a group that has seen no row: COUNT 0, MAX/MIN NULL. */
  private def emptyAccumulators(g: GroupSpec): Array[JValue] =
    g.aggs.map(a => if (a.kind == "count") JLong(0): JValue else JNull).toArray

  private def updateGroup(table: GroupTable, g: GroupSpec, key: Vector[JValue], vals: Array[JValue]): Unit = {
    val acc = table.getOrElseUpdate(key, emptyAccumulators(g))
    var i = 0
    while (i < g.aggs.length) {
      g.aggs(i).kind match {
        case "count" =>
          acc(i) = JLong(acc(i).asInstanceOf[JLong].v + 1)
        case "max" =>
          if (vals(i) != JNull && (acc(i) == JNull || Expr.truthy(Expr.compare(">", vals(i), acc(i)))))
            acc(i) = vals(i)
        case "min" =>
          if (vals(i) != JNull && (acc(i) == JNull || Expr.truthy(Expr.compare("<", vals(i), acc(i)))))
            acc(i) = vals(i)
      }
      i += 1
    }
  }

  /** The output of either engine: one row per group (a global aggregate
    * yields one row even over empty input), or the selected rows.
    */
  private def result(plan: PlanSpec, table: GroupTable, selected: Iterable[Array[JValue]]): QueryResult =
    plan.group match {
      case Some(gs) =>
        val cols = gs.keys.map(_._1) ++ gs.aggs.map(_.as)
        val rows =
          if (gs.keys.isEmpty && table.isEmpty) Iterator.single(emptyAccumulators(gs))
          else table.iterator.map { case (k, acc) => (k ++ acc).toArray }
        finish(plan, cols, rows)
      case None =>
        finish(plan, plan.select.map(_._1), selected.iterator)
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
    val table: GroupTable = mutable.LinkedHashMap.empty
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
            val key = gs.keys.map(k => Expr.eval(k._2, env)).toVector
            val vals = gs.aggs.map(a => if (a.expr == null) JNull else Expr.eval(a.expr, env)).toArray
            updateGroup(table, gs, key, vals)
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

  private def runCodeGen(ds: LsmDataset, plan: PlanSpec, scanIter: Iterator[ScanTuple]): QueryResult = {
    // Distinct record-rooted paths become pre-resolved accessor slots: on
    // columnar layouts each accessor assembles only its own subtree from the
    // column shapes (no full-record assembly — §5's key saving).
    val paths = allExprs(plan).flatMap(Expr.rootPaths(_, RootVar)).toSet.toVector
    val columnar = ds.layout.isColumnar
    val pathSlots = paths.indices.map(i => s"$$p$i").toVector
    val pathIndex: Map[List[String], Int] = paths.zipWithIndex.toMap

    val accessors: Vector[(ScanTuple) => JValue] = paths.map { p =>
      if (p == List(ds.pkField)) (t: ScanTuple) => JLong(t.key)
      else if (p.isEmpty) (t: ScanTuple) => t.record()
      else if (columnar) {
        ds.schema.nodeAt(p) match {
          case Some(node) =>
            (t: ScanTuple) => {
              val sh = t.shapes()
              if (sh == null) { // in-memory component tuple: still row-major (§4.4)
                var cur: JValue = t.record()
                p.foreach { f =>
                  cur = cur match { case o: JObject => o.get(f).getOrElse(JNull); case _ => JNull }
                }
                cur
              } else Assembler.assembleNode(node, id => sh(id)).getOrElse(JNull)
            }
          case None => (_: ScanTuple) => JNull
        }
      } else {
        val segs = p
        (t: ScanTuple) => {
          var cur: JValue = t.record()
          segs.foreach { f =>
            cur = cur match { case o: JObject => o.get(f).getOrElse(JNull); case _ => JNull }
          }
          cur
        }
      }
    }

    // Rewrite exprs: maximal record-rooted paths → accessor-slot variables.
    def rewrite(e: Expr): Expr = e match {
      case p @ (Path(_, _) | Var(RootVar)) =>
        pathOf(p) match {
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
    def pathOf(e: Expr): Option[List[String]] = e match {
      case Var(RootVar) => Some(Nil)
      case Path(b, f)   => pathOf(b).map(_ :+ f)
      case _            => None
    }

    val extraVars = plan.pipeline.collect {
      case UnnestOp(_, as) => as
      case AssignOp(as, _) => as
    } ++ plan.pipeline.collect { case FilterOp(p) => existsVars(p) }.flatten ++
      plan.group.toSeq.flatMap(g => (g.keys.map(_._2) ++ g.aggs.map(_.expr).filter(_ != null)).flatMap(existsVars)) ++
      plan.select.map(_._2).flatMap(existsVars)
    val names = (pathSlots ++ extraVars).distinct.toArray

    val g = plan.group
    val table: GroupTable = mutable.LinkedHashMap.empty
    val outRows = mutable.ArrayBuffer.empty[Array[JValue]]

    // Fuse the pipeline into one closure chain ending at the group operator
    // (the pipeline breaker stays a regular operator, as in Figure 11).
    val terminal: Env => Unit = g match {
      case Some(gs) =>
        val keyFs = gs.keys.map(k => Expr.compile(rewrite(k._2), names)).toArray
        val aggFs = gs.aggs.map(a => if (a.expr == null) null else Expr.compile(rewrite(a.expr), names)).toArray
        env => {
          val key = keyFs.map(_(env)).toVector
          val vals = aggFs.map(f => if (f == null) JNull else f(env))
          updateGroup(table, gs, key, vals)
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
        var i = 0
        while (i < accessors.length) { slots(i) = accessors(i)(t); i += 1 }
        java.util.Arrays.fill(slots.asInstanceOf[Array[AnyRef]], accessors.length, slots.length, JNull)
        fused(env)
      }
    }

    result(plan, table, outRows)
  }
}
