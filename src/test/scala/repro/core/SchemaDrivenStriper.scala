package repro.core

/** Test-only reference shredder: walks the *schema* and fetches each field
  * from the record with `JObject.get` (first occurrence of a name wins),
  * treating JSON null as absent. Its per-column token streams define what
  * [[Striper]]'s record-driven walk must emit.
  */
final class SchemaDrivenStriper(schema: Schema) {

  def stripe(record: JObject, sink: ColumnSink): Unit =
    stripeNode(schema.root, record, definedLevel = 0, arrayDepth = 0, sink)

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
        case _ =>
          on.fields.valuesIterator.foreach(stripeNode(_, null, definedLevel, arrayDepth, sink))
      }

    case an: ArrayNode =>
      value match {
        case JArray(items) if an.item != null && items.nonEmpty =>
          items.foreach { item =>
            val iv = item match { case JNull => null; case v => v }
            stripeNode(an.item, iv, an.slotLevel, arrayDepth + 1, sink)
          }
          Schema.leavesUnder(an).foreach(sink.delimiter(_, arrayDepth))
        case JArray(_) if an.item != null =>
          stripeNode(an.item, null, an.ownLevel, arrayDepth + 1, sink)
        case _ =>
          if (an.item != null) stripeNode(an.item, null, definedLevel, arrayDepth + 1, sink)
      }

    case un: UnionNode =>
      val k = if (value == null) null else Kind.of(value)
      un.alternatives.foreach { case (tag, alt) =>
        if (tag == k) stripeNode(alt, value, definedLevel, arrayDepth, sink)
        else stripeNode(alt, null, definedLevel, arrayDepth, sink)
      }
  }
}
