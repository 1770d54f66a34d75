package repro.core

/** Shreds a record into per-leaf (definition level, value) token streams per
  * the extended Dremel format (§3.2): no repetition levels — arrays are
  * delimiter-encoded; union alternatives sit at the same level as the value;
  * absent subtrees contribute one token per leaf carrying the deepest defined
  * level.
  *
  * Striping walks the *record* (Dremel's record shredding, Melnik et al.,
  * VLDB 2010): each object's own fields are visited once and matched to the
  * schema object's children by name, through an index built once per
  * striper; the children the record did not visit are then emitted as
  * absent, one token per leaf under them. So every leaf of the current
  * schema still receives exactly one token run per record — the alignment
  * that record assembly and reconciliation skipping rely on — at a cost
  * linear in the record plus the schema's leaves, not in their product.
  *
  * Inference runs first (two-pass flush), so the schema is a superset of
  * every record striped: a field with no schema child was only ever null and
  * is skipped. A JSON-null field is absent, and of duplicate field names the
  * first occurrence wins.
  */
final class Striper(schema: Schema) {

  /** One schema object's children in field order, a name → slot map, and
    * the slots visited by the object being striped. A schema node never
    * occurs below itself, so one flag array per node is enough; the absent
    * pass clears it for the next record.
    */
  private final class ObjectIndex(node: ObjectNode) {
    val children: Array[SchemaNode] = node.fields.valuesIterator.toArray
    val leaves: Array[Array[Int]] = children.map(leavesUnder)
    val slots = new java.util.HashMap[String, Integer]()
    node.fields.keysIterator.zipWithIndex.foreach { case (name, i) => slots.put(name, i) }
    val visited = new Array[Boolean](children.length)
  }

  // Both caches live per striper (schema frozen during a flush).
  private val leavesCache = new java.util.IdentityHashMap[SchemaNode, Array[Int]]()
  private val indexCache = new java.util.IdentityHashMap[ObjectNode, ObjectIndex]()

  private def leavesUnder(node: SchemaNode): Array[Int] = {
    val cached = leavesCache.get(node)
    if (cached != null) return cached
    val arr = Schema.leavesUnder(node)
    leavesCache.put(node, arr)
    arr
  }

  private def indexOf(node: ObjectNode): ObjectIndex = {
    val cached = indexCache.get(node)
    if (cached != null) return cached
    val ix = new ObjectIndex(node)
    indexCache.put(node, ix)
    ix
  }

  /** Stripe one (non-anti-matter) record into `sink`. */
  def stripe(record: JObject, sink: ColumnSink): Unit =
    stripeObject(schema.root, record, arrayDepth = 0, sink)

  /** One absent token per leaf, at the deepest level proven present. */
  private def absent(leaves: Array[Int], definedLevel: Int, sink: ColumnSink): Unit = {
    var i = 0
    while (i < leaves.length) { sink.entry(leaves(i), definedLevel, null); i += 1 }
  }

  private def stripeObject(on: ObjectNode, o: JObject, arrayDepth: Int, sink: ColumnSink): Unit = {
    val ix = indexOf(on)
    o.fields.foreach { case (name, v) =>
      val slot = ix.slots.get(name)
      if (slot != null && !ix.visited(slot)) {
        ix.visited(slot) = true
        stripeNode(ix.children(slot), if (v == JNull) null else v, on.ownLevel, arrayDepth, sink)
      }
    }
    var s = 0
    while (s < ix.children.length) {
      if (ix.visited(s)) ix.visited(s) = false
      else absent(ix.leaves(s), on.ownLevel, sink)
      s += 1
    }
  }

  /** `value` is null when the subtree is absent in this record (missing,
    * JSON null, or a non-matching union alternative); `definedLevel` is the
    * deepest level proven present above this node.
    */
  private def stripeNode(node: SchemaNode, value: JValue, definedLevel: Int,
                         arrayDepth: Int, sink: ColumnSink): Unit =
    if (value == null) absent(leavesUnder(node), definedLevel, sink)
    else node match {
      case at: AtomicNode =>
        if (Kind.of(value) == at.tpe.name) sink.entry(at.columnId, at.ownLevel, value)
        else sink.entry(at.columnId, definedLevel, null)

      case on: ObjectNode =>
        value match {
          case o: JObject => stripeObject(on, o, arrayDepth, sink)
          case _          => absent(leavesUnder(on), definedLevel, sink)
        }

      case an: ArrayNode =>
        value match {
          case JArray(items) if an.item != null && items.nonEmpty =>
            // Each element slot is proven at slotLevel; a JSON-null element
            // stripes as absent-below-slot (def = slotLevel) and assembles
            // back to null.
            items.foreach { item =>
              stripeNode(an.item, if (item == JNull) null else item, an.slotLevel, arrayDepth + 1, sink)
            }
            leavesUnder(an).foreach(sink.delimiter(_, arrayDepth))
          case JArray(_) => // empty: a single terminal token at the array's own level
            absent(leavesUnder(an), an.ownLevel, sink)
          case _ =>
            absent(leavesUnder(an), definedLevel, sink)
        }

      case un: UnionNode =>
        val k = Kind.of(value)
        un.alternatives.foreach { case (tag, alt) =>
          stripeNode(alt, if (tag == k) value else null, definedLevel, arrayDepth, sink)
        }
    }
}
