package repro.core

/** Shreds a record into per-leaf (definition level, value) token streams per
  * the extended Dremel format (§3.2): no repetition levels — arrays are
  * delimiter-encoded; union alternatives sit at the same level as the value;
  * absent subtrees contribute one token per leaf carrying the deepest defined
  * level.
  *
  * Striping walks the *schema* (not the value), so every leaf of the current
  * schema receives exactly one token run per record — the alignment that
  * record assembly and reconciliation skipping rely on. Inference runs first
  * (two-pass flush), so the schema is a superset of every record striped.
  */
final class Striper(schema: Schema) {

  // Leaves under a node, cached per striper (schema frozen during a flush).
  private val leavesCache = new java.util.IdentityHashMap[SchemaNode, Array[Int]]()

  private def leavesUnder(node: SchemaNode): Array[Int] = {
    val cached = leavesCache.get(node)
    if (cached != null) return cached
    val arr = Schema.leavesUnder(node)
    leavesCache.put(node, arr)
    arr
  }

  /** Stripe one (non-anti-matter) record into `sink`. */
  def stripe(record: JObject, sink: ColumnSink): Unit =
    stripeNode(schema.root, record, definedLevel = 0, arrayDepth = 0, sink)

  /** `value` is null when the subtree is absent in this record (missing,
    * JSON null, or a non-matching union alternative); `definedLevel` is the
    * deepest level proven present above this node.
    */
  private def stripeNode(node: SchemaNode, value: JValue, definedLevel: Int,
                         arrayDepth: Int, sink: ColumnSink): Unit = node match {
    case at: AtomicNode =>
      val matches = value != null && Kind.of(value) == at.tpe.name
      if (matches) sink.entry(at.columnId, at.ownLevel, value)
      else sink.entry(at.columnId, definedLevel, null)

    case on: ObjectNode =>
      value match {
        case o: JObject =>
          on.fields.foreach { case (name, child) =>
            val fv = o.get(name).orNull match { case JNull => null; case v => v }
            stripeNode(child, fv, on.ownLevel, arrayDepth, sink)
          }
        case _ => // absent (or a non-object under a union alternative: absent here)
          on.fields.valuesIterator.foreach(stripeNode(_, null, definedLevel, arrayDepth, sink))
      }

    case an: ArrayNode =>
      value match {
        case JArray(items) if an.item != null && items.nonEmpty =>
          // Each element slot is proven at slotLevel; a JSON-null element
          // stripes as absent-below-slot (def = slotLevel) and assembles
          // back to null.
          items.foreach { item =>
            val iv = item match { case JNull => null; case v => v }
            stripeNode(an.item, iv, an.slotLevel, arrayDepth + 1, sink)
          }
          leavesUnder(an).foreach(sink.delimiter(_, arrayDepth))
        case JArray(_) if an.item != null =>
          // Empty array: single terminal token at the array's own level.
          stripeNode(an.item, null, an.ownLevel, arrayDepth + 1, sink)
        case _ =>
          if (an.item != null)
            stripeNode(an.item, null, definedLevel, arrayDepth + 1, sink)
      }

    case un: UnionNode =>
      val k = if (value == null) null else Kind.of(value)
      un.alternatives.foreach { case (tag, alt) =>
        if (tag == k) stripeNode(alt, value, definedLevel, arrayDepth, sink)
        else stripeNode(alt, null, definedLevel, arrayDepth, sink)
      }
  }
}
