package repro.query

import repro.core._

/** Minimal SQL++-flavoured expression language for the evaluation queries
  * (Appendix A). Values are dynamically typed [[JValue]]s, and predicates
  * treat non-true as false. A comparison of two values that [[Expr.order]]
  * cannot order (different kinds, a NULL or missing value, an array or an
  * object) is decided by value equality alone: `==` is TRUE if the two
  * values are equal and `!=` is TRUE if they differ, so a missing value
  * `!=` a literal is TRUE; every other case yields NULL, as §5's
  * `10 > "ten"` does.
  */
sealed trait Expr
final case class Var(name: String) extends Expr
final case class Path(base: Expr, field: String) extends Expr
final case class Lit(v: JValue) extends Expr
final case class Cmp(op: String, l: Expr, r: Expr) extends Expr // >=, >, <, <=, ==, !=
final case class And(l: Expr, r: Expr) extends Expr
final case class Or(l: Expr, r: Expr) extends Expr
final case class Func(name: String, args: List[Expr]) extends Expr
/** SOME `v` IN `arr` SATISFIES `pred`. */
final case class ExistsIn(arr: Expr, varName: String, pred: Expr) extends Expr

/** Runtime environment: variable slots resolved at compile time. */
final class Env(val slots: Array[JValue], val names: Array[String]) {
  def indexOf(n: String): Int = {
    val i = names.indexOf(n)
    require(i >= 0, s"unbound variable $n (have ${names.mkString(",")})")
    i
  }
}

object Expr {
  /** Convenience: "t.entities.hashtags" → Path(Path(Var(t), entities), hashtags). */
  def path(spec: String): Expr = {
    val parts = spec.split('.')
    parts.drop(1).foldLeft[Expr](Var(parts.head))(Path(_, _))
  }

  // ------------------------------------------------------------ evaluation

  def truthy(v: JValue): Boolean = v == JBool(true)

  /** Two values of one kind in order: two strings, two booleans, or two
    * numbers by value (two longs exactly, two doubles by `Double.compare`,
    * so NaN above +Inf and -0.0 below 0.0, and a long against a double
    * exactly, so that the order stays transitive above 2^53). Any other pair
    * gives [[Incomparable]].
    */
  def order(l: JValue, r: JValue): Int = l match {
    case JString(a) => r match { case JString(b) => a.compareTo(b); case _ => Incomparable }
    case JBool(a)   => r match { case JBool(b) => java.lang.Boolean.compare(a, b); case _ => Incomparable }
    case JLong(a) => r match {
      case JLong(b)   => java.lang.Long.compare(a, b)
      case JDouble(b) => compareLongDouble(a, b)
      case _          => Incomparable
    }
    case JDouble(a) => r match {
      case JDouble(b) => java.lang.Double.compare(a, b)
      case JLong(b)   => -compareLongDouble(b, a)
      case _          => Incomparable
    }
    case _ => Incomparable
  }

  private[query] def compareLongDouble(a: Long, b: Double): Int = {
    // Rounding is monotone, so a differing sign is exact; on a tie b is an
    // integral double in [-2^63, 2^63], and only 2^63 (= Long.MaxValue.toDouble)
    // lies above every long.
    val c = java.lang.Double.compare(a.toDouble, b)
    if (c != 0) c
    else if (b >= Long.MaxValue.toDouble) -1
    else java.lang.Long.compare(a, b.toLong)
  }

  /** What [[order]] gives a pair it cannot order (no real comparison yields it). */
  final val Incomparable = Int.MinValue

  def compare(op: String, l: JValue, r: JValue): JValue = {
    val c = order(l, r)
    if (c == Incomparable)
      if (op == "==" && l == r) JBool(true) else if (op == "!=" && l != r) JBool(true) else JNull
    else
      JBool(op match {
        case ">" => c > 0; case ">=" => c >= 0; case "<" => c < 0; case "<=" => c <= 0
        case "==" => c == 0; case "!=" => c != 0
      })
  }

  /** The total order of ORDER BY and of its tie-break: null < boolean <
    * number < string < array/object. Numbers compare as in [[order]]; a
    * long and a double of equal value put the long first. Arrays and objects
    * compare by their JSON rendering, as the last resort.
    */
  object ValueOrder extends Ordering[JValue] {
    private def rank(v: JValue): Int = v match {
      case JNull                  => 0
      case _: JBool               => 1
      case _: JLong | _: JDouble  => 2
      case _: JString             => 3
      case _: JArray | _: JObject => 4
    }

    def compare(a: JValue, b: JValue): Int = (a, b) match {
      case (JLong(x), JLong(y))     => java.lang.Long.compare(x, y)
      case (JString(x), JString(y)) => x.compareTo(y)
      case _ =>
        val ra = rank(a)
        val c = Integer.compare(ra, rank(b))
        if (c != 0) c
        else ra match {
          case 0 => 0
          case 1 => java.lang.Boolean.compare(a == JBool(true), b == JBool(true))
          case 2 =>
            val n = order(a, b)
            if (n != 0) n else java.lang.Boolean.compare(a.isInstanceOf[JDouble], b.isInstanceOf[JDouble])
          case _ => a.render.compareTo(b.render)
        }
    }
  }

  def call(name: String, args: List[JValue]): JValue = (name, args) match {
    case ("lowercase", JString(s) :: Nil) => JString(s.toLowerCase)
    case ("length", JString(s) :: Nil)    => JLong(s.length.toLong)
    case ("is_array", (_: JArray) :: Nil) => JBool(true)
    case ("is_array", _ :: Nil)           => JBool(false)
    case ("array_count", JArray(xs) :: Nil) => JLong(xs.length.toLong)
    case ("array_distinct", JArray(xs) :: Nil) => JArray(xs.distinct)
    case ("array_contains", JArray(xs) :: v :: Nil) => JBool(xs.contains(v))
    case ("array_pairs", JArray(xs) :: Nil) =>
      // Unordered distinct pairs rendered "a|b" with a <= b (wos Q4).
      val strs = xs.collect { case JString(s) => s }.distinct.sorted
      JArray((for { i <- strs.indices; j <- i + 1 until strs.length }
        yield JString(strs(i) + "|" + strs(j))).toVector)
    case ("field_each", v :: JString(path) :: Nil) =>
      // SQL++ `x[*].a.b` over a union-typed value: arrays map per element,
      // a lone object acts as a singleton (wos address_name access, §6.4.4).
      def walk(x: JValue): JValue =
        path.split('.').foldLeft(x) {
          case (o: JObject, f) => o.get(f).getOrElse(JNull)
          case _               => JNull
        }
      v match {
        case JArray(xs) => JArray(xs.map(walk))
        case o: JObject => JArray(Vector(walk(o)))
        case _          => JNull
      }
    case ("to_string", v :: Nil) => v match {
      case JString(s) => JString(s)
      case JLong(l)   => JString(l.toString)
      case JDouble(d) => JString(d.toString)
      case other      => JString(other.render)
    }
    case _ => JNull
  }

  /** Tree-walking evaluation — the interpreted engine's per-row dispatch. */
  def eval(e: Expr, env: Env): JValue = e match {
    case Var(n)        => env.slots(env.indexOf(n))
    case Path(b, f)    => eval(b, env) match {
      case o: JObject => o.get(f).getOrElse(JNull)
      case _          => JNull
    }
    case Lit(v)        => v
    case Cmp(op, l, r) => compare(op, eval(l, env), eval(r, env))
    case And(l, r)     => JBool(truthy(eval(l, env)) && truthy(eval(r, env)))
    case Or(l, r)      => JBool(truthy(eval(l, env)) || truthy(eval(r, env)))
    case Func(n, as)   => call(n, as.map(eval(_, env)))
    case ExistsIn(arr, vn, pred) =>
      eval(arr, env) match {
        case JArray(xs) =>
          val slot = env.indexOf(vn)
          JBool(xs.exists { x => env.slots(slot) = x; truthy(eval(pred, env)) })
        case _ => JBool(false)
      }
  }

  // ----------------------------------------------------------- compilation

  /** Closure compilation (§5 substitution for Truffle): the expression tree
    * is resolved once — variable slots bound, dispatch flattened into nested
    * closures the JVM JIT compiles — so per-row work is straight calls with
    * no tree walking or name resolution.
    */
  def compile(e: Expr, names: Array[String]): Env => JValue = e match {
    case Var(n) =>
      val i = names.indexOf(n); require(i >= 0, s"unbound $n")
      env => env.slots(i)
    case Path(b, f) =>
      val cb = compile(b, names)
      env => cb(env) match {
        case o: JObject => o.get(f).getOrElse(JNull)
        case _          => JNull
      }
    case Lit(v) => _ => v
    case Cmp(op, l, r) =>
      val cl = compile(l, names); val cr = compile(r, names)
      env => compare(op, cl(env), cr(env))
    case And(l, r) =>
      val cl = compile(l, names); val cr = compile(r, names)
      env => JBool(truthy(cl(env)) && truthy(cr(env)))
    case Or(l, r) =>
      val cl = compile(l, names); val cr = compile(r, names)
      env => JBool(truthy(cl(env)) || truthy(cr(env)))
    case Func(n, as) =>
      val cas = as.map(compile(_, names))
      env => call(n, cas.map(_(env)))
    case ExistsIn(arr, vn, pred) =>
      val ca = compile(arr, names)
      val slot = names.indexOf(vn); require(slot >= 0, s"unbound $vn")
      val cp = compile(pred, names)
      env => ca(env) match {
        case JArray(xs) => JBool(xs.exists { x => env.slots(slot) = x; truthy(cp(env)) })
        case _          => JBool(false)
      }
  }

  /** The path below variable `rootVar` that `e` spells (`rootVar` itself
    * is Nil), if it is one.
    */
  def pathBelow(e: Expr, rootVar: String): Option[List[String]] = e match {
    case Var(`rootVar`) => Some(Nil)
    case Path(b, f)     => pathBelow(b, rootVar).map(_ :+ f)
    case _              => None
  }

  /** The maximal paths below variable `rootVar` in `e`, one per occurrence. */
  def pathUses(e: Expr, rootVar: String): List[List[String]] = e match {
    case Var(_) | Path(_, _) => pathBelow(e, rootVar) match {
      case Some(p) => List(p)
      case None    => e match { case Path(b, _) => pathUses(b, rootVar); case _ => Nil }
    }
    case Lit(_)            => Nil
    case Cmp(_, l, r)      => pathUses(l, rootVar) ++ pathUses(r, rootVar)
    case And(l, r)         => pathUses(l, rootVar) ++ pathUses(r, rootVar)
    case Or(l, r)          => pathUses(l, rootVar) ++ pathUses(r, rootVar)
    case Func(_, as)       => as.flatMap(pathUses(_, rootVar))
    case ExistsIn(a, _, p) => pathUses(a, rootVar) ++ pathUses(p, rootVar)
  }

  /** All record-rooted paths referenced by `e` (for projection analysis). */
  def rootPaths(e: Expr, rootVar: String): Set[List[String]] = pathUses(e, rootVar).toSet
}
