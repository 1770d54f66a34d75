package repro.core

/** The reference record assembly that the reader-driven [[Assembler]]
  * replaced: stitches per-column [[Shape]]s for one record back into a
  * [[JValue]], transitioning array state on delimiters (already folded into
  * [[SArr]] by the column parsers) instead of repetition levels. Tests
  * compare the assembler with it.
  *
  * `shapeOf(columnId)` returns the record's parsed shape for a leaf, or null
  * if the column is not projected / not present in this component — both
  * assemble as absent, which is how older components expose columns that
  * were inferred later (§3.2.2's "write NULLs for all previous records").
  */
object ShapeAssembler {

  def assembleRecord(schema: Schema, shapeOf: Int => Shape): JObject =
    assembleNode(schema.root, shapeOf) match {
      case Some(o: JObject) => o
      case _ => JObject(Vector.empty)
    }

  /** Assemble the value rooted at `node`; None ⇒ absent (missing ≡ null). */
  def assembleNode(node: SchemaNode, shapeOf: Int => Shape): Option[JValue] = node match {
    case at: AtomicNode =>
      shapeOf(at.columnId) match {
        case SLeaf(d, v) if d == at.ownLevel =>
          Some(v match {
            case l: java.lang.Long    => JLong(l)
            case dd: java.lang.Double => JDouble(dd)
            case s: String            => JString(s)
            case b: java.lang.Boolean => JBool(b)
            case null                 => JNull // TNull-typed leaf: present literal null
          })
        case _ => None
      }

    case on: ObjectNode =>
      val fields = Vector.newBuilder[(String, JValue)]
      var any = false
      on.fields.foreach { case (name, child) =>
        assembleNode(child, shapeOf).foreach { v => any = true; fields += ((name, v)) }
      }
      if (any) Some(JObject(fields.result()))
      else if (maxDefined(on, shapeOf) >= on.ownLevel) Some(JObject(Vector.empty))
      else None

    case an: ArrayNode =>
      if (an.item == null) None // array only ever observed empty: no columns, assembles as absent
      else {
        val n = elementCount(an, shapeOf)
        if (n >= 0) {
          val items = Vector.newBuilder[JValue]
          var k = 0
          while (k < n) {
            val kk = k
            items += assembleNode(an.item, id => descend(shapeOf(id), kk)).getOrElse(JNull)
            k += 1
          }
          Some(JArray(items.result()))
        } else if (maxDefined(an, shapeOf) >= an.ownLevel) Some(JArray(Vector.empty))
        else None
      }

    case un: UnionNode =>
      // Paper's access algorithm: probe alternatives one by one; at most one
      // is present per record (§3.2.2).
      un.alternatives.valuesIterator
        .map(assembleNode(_, shapeOf))
        .collectFirst { case Some(v) => v }
  }

  private def descend(s: Shape, k: Int): Shape = s match {
    case SArr(items) => items(k)
    case leaf        => leaf // absent at an outer level: stays absent at every element
  }

  /** Element count at this array depth: length of any SArr among the
    * subtree's leaf shapes (they are aligned by construction), or -1 if all
    * leaves are terminals (array missing or empty here).
    */
  private def elementCount(an: ArrayNode, shapeOf: Int => Shape): Int = {
    var n = -1
    foreachLeaf(an) { id =>
      shapeOf(id) match {
        case SArr(items) if n < 0 => n = items.length
        case SArr(items) => require(items.length == n,
          s"misaligned sibling array columns: ${items.length} vs $n")
        case _ => ()
      }
    }
    n
  }

  /** Deepest definition level any leaf below `node` proves in this record. */
  private def maxDefined(node: SchemaNode, shapeOf: Int => Shape): Int = {
    var m = -1
    foreachLeaf(node) { id =>
      shapeOf(id) match {
        case SLeaf(d, _) => m = math.max(m, d)
        case SArr(_)     => m = Int.MaxValue // structure below ⇒ defined well past this node
        case null        => ()
      }
    }
    m
  }

  private def foreachLeaf(node: SchemaNode)(f: Int => Unit): Unit = node match {
    case at: AtomicNode => f(at.columnId)
    case on: ObjectNode => on.fields.valuesIterator.foreach(foreachLeaf(_)(f))
    case an: ArrayNode  => if (an.item != null) foreachLeaf(an.item)(f)
    case un: UnionNode  => un.alternatives.valuesIterator.foreach(foreachLeaf(_)(f))
  }
}
