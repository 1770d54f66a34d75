package repro.core

/** Test helper: records → schema inference → striping → encoded column
  * chunks → parse → assembly. The core §3 pipeline without LSM machinery.
  */
object RoundTrip {

  def through(records: Seq[JObject]): (Schema, Seq[JObject]) = {
    val schema = new Schema
    records.foreach(schema.observe)
    val out = stripeAndAssemble(schema, records)
    (schema, out)
  }

  def stripeAndAssemble(schema: Schema, records: Seq[JObject]): Seq[JObject] = {
    val writers = schema.columns.map(new ColumnChunkWriter(_)).toArray
    val sink = new ColumnSink {
      def entry(col: Int, d: Int, v: JValue): Unit = writers(col).entry(d, v)
      def delimiter(col: Int, d: Int): Unit = writers(col).delimiter(d)
    }
    val striper = new Striper(schema)
    records.foreach(striper.stripe(_, sink))
    val chunks = writers.map(_.finish())
    val readers = schema.columns.zipWithIndex.map { case (m, i) =>
      new ColumnChunkReader(m, chunks(i), 0, chunks(i).length)
    }.toArray
    val asm = new Assembler(schema, null)
    records.map(_ => asm.record(readers))
  }

  /** Order-insensitive comparison form: object fields sorted by name, JSON
    * `null` fields dropped (missing ≡ null in the schemaless model).
    */
  def normalize(v: JValue): JValue = v match {
    case JObject(fs) =>
      JObject(fs.filter(_._2 != JNull).map { case (k, x) => k -> normalize(x) }.sortBy(_._1))
    case JArray(xs) => JArray(xs.map(normalize))
    case other      => other
  }

  /** `normalize` plus the documented lossy mappings for degenerate values:
    * empty objects (and empty arrays) whose structure was never observed
    * elsewhere cannot produce columns, so they may vanish / flatten to null.
    * Applying this to both the input and the output makes the comparison
    * insensitive to exactly those cases.
    */
  def normalizeStrict(v: JValue): JValue = v match {
    case JObject(fs) =>
      JObject(fs.filter(_._2 != JNull).map { case (k, x) => k -> normalizeStrict(x) }
        .filter { case (_, JObject(f2)) => f2.nonEmpty; case _ => true }
        .sortBy(_._1))
    case JArray(xs) =>
      JArray(xs.map(x => normalizeStrict(x) match {
        case JObject(fs) if fs.isEmpty => JNull
        case other                     => other
      }))
    case other => other
  }
}
