package repro.query

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.{Oracle, SparkSpec, Tagged}
import repro.core._
import repro.datasets.Datasets
import repro.lsm._
import repro.queries.Queries
import scala.collection.mutable

/** End-to-end query correctness: every Table-2 query runs identically across
  * all four layouts and both execution modes, and grouped variants are
  * checked against DuckDB via the oracle.
  */
class EngineSpec extends SparkSpec {

  private val N = 400L
  private val dsCache = mutable.Map.empty[(String, String), LsmDataset]

  private def dataset(name: String, layout: LayoutKind): LsmDataset =
    dsCache.getOrElseUpdate((name, layout.name), {
      val dir = java.nio.file.Files.createTempDirectory(s"eng-$name-${layout.name}").toFile
      val config = LsmConfig(pageSize = 16 * 1024, memBudgetBytes = 128 * 1024,
        amaxLeafRecords = 120, maxComponents = 4)
      val ds = new LsmDataset(name, dir, layout, config, new BufferCache(1024))
      Datasets.byName(name, N).foreach(ds.upsert)
      ds.flush()
      ds
    })

  /** Rows as a set, rendered with their kinds (NaN is not NULL, -0.0 is not 0.0). */
  private def canonical(r: QueryResult): Set[String] = r.rows.map(Tagged.row).toSet

  private def resultToDF(r: QueryResult): DataFrame = {
    def sparkVal(v: JValue): Any = v match {
      case JLong(l) => l; case JDouble(d) => d; case JString(s) => s
      case JBool(b) => b; case JNull => null
      case other => other.render
    }
    val fields = r.columns.zipWithIndex.map { case (c, i) =>
      val t = r.rows.iterator.map(_(i)).collectFirst {
        case JLong(_) => LongType
        case JDouble(_) => DoubleType
        case JBool(_) => BooleanType
        case JString(_) => StringType
      }.getOrElse(StringType)
      StructField(c, t, nullable = true)
    }
    val rows = r.rows.map(row => Row.fromSeq(row.map(sparkVal)))
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), StructType(fields))
  }

  private def flatDF(cols: Seq[String], rows: Seq[Seq[Any]]): DataFrame = {
    val schema = StructType(cols.map(StructField(_, StringType, nullable = true)))
    spark.createDataFrame(
      java.util.Arrays.asList(rows.map(r => Row.fromSeq(r.map(v => if (v == null) null else v.toString))): _*),
      schema)
  }

  private val datasetsAndQueries = Seq(
    "cell"    -> Seq("Q1", "Q2g", "Q3"),
    "sensors" -> Seq("Q1", "Q2", "Q3g", "Q4g"),
    "tweet_1" -> Seq("Q1", "Q2g", "Q3g"),
    "tweet_2" -> Seq("Q1", "Q2g", "Q3g"),
    "wos"     -> Seq("Q1", "Q2g", "Q3g", "Q4g"))

  private val sensorsDay = 1556400000000L + 100L * 3600

  private def planOf(ds: String, q: String): PlanSpec = (ds, q) match {
    case (_, "Q1") if ds != "sensors" => Queries.pureCount
    case ("cell", "Q2g")    => Queries.cellQ2Grouped
    case ("cell", "Q3")     => Queries.cellQ3
    case ("sensors", "Q1")  => Queries.sensorsQ1
    case ("sensors", "Q2")  => Queries.sensorsQ2
    case ("sensors", "Q3g") => Queries.sensorsQ3Grouped
    case ("sensors", "Q4g") => Queries.sensorsQ4Grouped(sensorsDay)
    case (("tweet_1" | "tweet_2"), "Q2g") => Queries.tweetQ2Grouped
    case (("tweet_1" | "tweet_2"), "Q3g") => Queries.tweetQ3Grouped
    case ("wos", "Q2g") => Queries.wosQ2Grouped
    case ("wos", "Q3g") => Queries.wosQ3Grouped
    case ("wos", "Q4g") => Queries.wosQ4Grouped
  }

  // 1. Cross-layout, cross-mode equality -------------------------------

  for ((dsName, qs) <- datasetsAndQueries; q <- qs) {
    test(s"$dsName/$q: identical results across layouts and execution modes") {
      val plan = planOf(dsName, q)
      val reference = canonical(Engine.run(dataset(dsName, LayoutKind.Open), plan, ExecMode.Interpreted))
      assert(reference.nonEmpty || q == "none")
      for (layout <- LayoutKind.all; mode <- Seq(ExecMode.Interpreted, ExecMode.CodeGen)) {
        val got = canonical(Engine.run(dataset(dsName, layout), plan, mode))
        assert(got == reference, s"layout=${layout.name} mode=$mode")
      }
    }
  }

  // 1b. ORDER BY … LIMIT plans ------------------------------------------

  private val topKPlans: Seq[(String, String, PlanSpec, PlanSpec)] = Seq(
    ("cell", "Q2", Queries.cellQ2, Queries.cellQ2Grouped),
    ("sensors", "Q3", Queries.sensorsQ3, Queries.sensorsQ3Grouped),
    ("sensors", "Q4", Queries.sensorsQ4(sensorsDay), Queries.sensorsQ4Grouped(sensorsDay)),
    ("tweet_1", "Q2", Queries.tweetQ2, Queries.tweetQ2Grouped),
    ("tweet_1", "Q3", Queries.tweetQ3, Queries.tweetQ3Grouped),
    ("tweet_2", "Q2", Queries.tweetQ2, Queries.tweetQ2Grouped),
    ("tweet_2", "Q3", Queries.tweetQ3, Queries.tweetQ3Grouped),
    ("wos", "Q2", Queries.wosQ2, Queries.wosQ2Grouped),
    ("wos", "Q3", Queries.wosQ3, Queries.wosQ3Grouped),
    ("wos", "Q4", Queries.wosQ4, Queries.wosQ4Grouped))

  private def rendered(r: QueryResult): Seq[String] = r.rows.map(Tagged.row)

  for ((dsName, q, plan, grouped) <- topKPlans) {
    test(s"$dsName/$q top-k: the head of the sorted groups, in the same order on every layout and mode") {
      val (col, desc) = plan.orderBy.get
      val all = Engine.run(dataset(dsName, LayoutKind.Open), grouped, ExecMode.Interpreted)
      val i = all.columns.indexOf(col)
      // The documented order: the order column (flipped under DESC), then
      // every column left to right, all under ValueOrder.
      val byOrderColumn = Ordering.by((r: Array[JValue]) => r(i))(
        if (desc) Expr.ValueOrder.reverse else Expr.ValueOrder)
      val byColumns = Ordering.by((r: Array[JValue]) => r.toSeq)(Ordering.Implicits.seqOrdering(Expr.ValueOrder))
      val expected = all.rows.sorted(byOrderColumn.orElse(byColumns)).take(plan.limit.get).map(Tagged.row)
      assert(expected.nonEmpty)
      for (layout <- LayoutKind.all; mode <- Seq(ExecMode.Interpreted, ExecMode.CodeGen))
        assert(rendered(Engine.run(dataset(dsName, layout), plan, mode)) == expected,
          s"layout=${layout.name} mode=$mode")
    }
  }

  test("longs above 2^53 and global aggregates over empty input: same answer on every layout and mode") {
    val big = 1L << 53
    def agg(pred: Expr, aggs: Agg*) = PlanSpec(List(FilterOp(pred)), group = Some(GroupSpec(Nil, aggs)))
    val countX = agg(Cmp("==", Expr.path("t.x"), Lit(JLong(big + 1))), Agg("count", null, "cnt"))
    val noneD = agg(Cmp(">=", Expr.path("t.d"), Lit(JLong(6))),
      Agg("count", null, "cnt"), Agg("max", Expr.path("t.x"), "mx"), Agg("min", Expr.path("t.x"), "mn"))
    val allX = agg(Cmp("==", Expr.path("t.x"), Lit(JLong(big))), Agg("count", null, "cnt"))
    for (layout <- LayoutKind.all) {
      val dir = java.nio.file.Files.createTempDirectory(s"eng-big-${layout.name}").toFile
      val ds = new LsmDataset("big", dir, layout, LsmConfig(pageSize = 16 * 1024,
        memBudgetBytes = 128 * 1024, amaxLeafRecords = 120), new BufferCache(64))
      (0L until 10L).foreach(i => ds.upsert(JObject.of("id" -> JLong(i), "x" -> JLong(big), "d" -> JLong(5))))
      ds.flush()
      if (layout == LayoutKind.Amax) assert(Engine.zonePredicate(ds, noneD) != null)
      for (mode <- Seq(ExecMode.Interpreted, ExecMode.CodeGen)) {
        def rows(p: PlanSpec) = Engine.run(ds, p, mode).rows.map(_.toSeq)
        val where = s"layout=${layout.name} mode=$mode"
        assert(rows(countX) == Seq(Seq(JLong(0))), where)
        assert(rows(noneD) == Seq(Seq(JLong(0), JNull, JNull)), where)
        assert(rows(allX) == Seq(Seq(JLong(10))), where)
      }
    }
  }

  test("group keys: one NaN group, -0.0 with 0.0, 1 apart from 1.0, missing with null, big longs apart") {
    val big = 1L << 53
    // Keys by record id; groups come out in first-seen order, keeping the
    // first-seen key (-0.0 for the zero group).
    val keys: Seq[Option[JValue]] = Seq(
      Some(JDouble(Double.NaN)), Some(JDouble(-0.0)), Some(JLong(1)), Some(JString("a")), None,
      Some(JLong(big)), Some(JDouble(Double.NaN)), Some(JDouble(0.0)), Some(JDouble(1.0)),
      Some(JString("a")), Some(JNull), Some(JLong(big + 1)))
    def show(v: JValue): String = v match {
      case JDouble(d) => s"double $d"
      case JLong(l)   => s"long $l"
      case other      => other.render
    }
    val expected = Seq("double NaN" -> 2, "double -0.0" -> 2, "long 1" -> 1, "\"a\"" -> 2, "null" -> 2,
      s"long $big" -> 1, "double 1.0" -> 1, s"long ${big + 1}" -> 1)
    val plan = PlanSpec(Nil, group = Some(GroupSpec(Seq("k" -> Expr.path("t.k")), Seq(Agg("count", null, "cnt")))))
    for (layout <- LayoutKind.all) {
      val dir = java.nio.file.Files.createTempDirectory(s"eng-keys-${layout.name}").toFile
      val ds = new LsmDataset("keys", dir, layout, LsmConfig(pageSize = 16 * 1024,
        memBudgetBytes = 128 * 1024, amaxLeafRecords = 120), new BufferCache(64))
      keys.zipWithIndex.foreach { case (k, i) =>
        ds.upsert(JObject(("id" -> (JLong(i.toLong): JValue)) +: k.map("k" -> _).toVector))
      }
      ds.flush()
      for (mode <- Seq(ExecMode.Interpreted, ExecMode.CodeGen)) {
        val got = Engine.run(ds, plan, mode).rows.map(r => show(r(0)) -> r(1).asInstanceOf[JLong].v.toInt)
        assert(got == expected, s"layout=${layout.name} mode=$mode")
      }
    }
  }

  test("narrowed unnest and SOME: CodeGen on APAX/AMAX equals Interpreted on Open") {
    // Elements that lack `a`, null elements, scalar elements, empty, null and
    // missing arrays, nested arrays; `a` first appears in the second flushed
    // component, and the memory component overwrites some older records.
    val r = new scala.util.Random(11)
    def element(i: Int, k: Int): JValue = r.nextInt(8) match {
      case 0 => JNull
      case 1 => JLong(5)
      case 2 => JObject.of("n" -> JArray.of(JArray.of(JLong(k), JLong(1)), JArray.of(), JNull))
      case 3 => JObject.of("b" -> JString(s"s${k % 3}"), "n" -> JArray.of())
      case _ if i < 40 => JObject.of("b" -> JString(s"s${k % 3}"))
      case 4 => JObject.of("a" -> JDouble(if (k % 2 == 0) -0.0 else Double.NaN), "b" -> JString("d"))
      case _ => JObject.of("b" -> JString(s"s${k % 3}"), "a" -> JLong(k.toLong))
    }
    def record(id: Int, i: Int): JObject = {
      val xs: Seq[(String, JValue)] = r.nextInt(6) match {
        case 0 => Nil
        case 1 => Seq("xs" -> JNull)
        case 2 => Seq("xs" -> JArray.of())
        case _ => Seq("xs" -> JArray((0 until 1 + r.nextInt(4)).map(element(i, _)).toVector))
      }
      JObject((Seq("id" -> JLong(id.toLong), "g" -> JLong((id % 3).toLong)) ++ xs).toVector)
    }
    val xs = Expr.path("t.xs")
    val count = Agg("count", null, "c")
    def grouped(pipe: List[PipeOp], keys: Seq[(String, Expr)], aggs: Agg*) =
      PlanSpec(pipe, group = Some(GroupSpec(keys, aggs)))
    val unnest = UnnestOp(xs, "x")
    val plans = Seq(
      "sub-path" -> grouped(List(unnest), Nil, count,
        Agg("max", Expr.path("x.a"), "mx"), Agg("min", Expr.path("x.a"), "mn")),
      "unused" -> grouped(List(unnest), Seq("g" -> Expr.path("t.g")), count),
      "some" -> grouped(List(FilterOp(ExistsIn(xs, "x", Cmp(">=", Expr.path("x.a"), Lit(JLong(2)))))),
        Seq("g" -> Expr.path("t.g")), count),
      "nested" -> grouped(List(unnest, UnnestOp(Expr.path("x.n"), "y")), Seq("y" -> Var("y")), count),
      "key" -> grouped(List(unnest), Seq("b" -> Expr.path("x.b")), count, Agg("max", Expr.path("x.a"), "mx")),
      "direct" -> PlanSpec(List(unnest), select = Seq("id" -> Expr.path("t.id"), "a" -> Expr.path("x.a"),
        "n" -> Func("array_count", List(xs)))))
    val batches = Seq((0 until 40).map(i => record(i, i)), (40 until 80).map(i => record(i, i)),
      (80 until 100).map(i => record(i, i)) ++ (0 until 10).map(i => record(i, 80 + i)))
    val built = LayoutKind.all.map { layout =>
      val dir = java.nio.file.Files.createTempDirectory(s"eng-narrow-${layout.name}").toFile
      val ds = new LsmDataset("narrow", dir, layout, LsmConfig(pageSize = 4 * 1024,
        memBudgetBytes = 1L << 20, amaxLeafRecords = 16), new BufferCache(256))
      batches.zipWithIndex.foreach { case (b, i) => b.foreach(ds.upsert); if (i < 2) ds.flush() }
      layout -> ds
    }.toMap
    val apax = built(LayoutKind.Apax)
    val cols = (name: String) => Engine.neededColumns(apax, plans.toMap.apply(name)).map(apax.schema.column(_).path).toSet
    // `b` is the array's first leaf; `a` became a union of long and double.
    assert(cols("unused") == Set("g", "xs.[*].b"), "one leaf counts the elements")
    assert(cols("sub-path") == apax.schema.columns.map(_.path).filter(p => p == "xs.[*].b" || p.startsWith("xs.[*].object.a")).toSet)
    assert(cols("sub-path").size == 3)
    for ((name, plan) <- plans) {
      def sorted(r: QueryResult) = r.rows.map(Tagged.row).sorted
      val want = sorted(Engine.run(built(LayoutKind.Open), plan, ExecMode.Interpreted))
      assert(want.nonEmpty, name)
      for (layout <- LayoutKind.all; mode <- Seq(ExecMode.Interpreted, ExecMode.CodeGen))
        assert(sorted(Engine.run(built(layout), plan, mode)) == want, s"$name layout=${layout.name} mode=$mode")
    }
  }

  // 2. DuckDB oracle verification --------------------------------------

  test("oracle: cell Q2/Q3 grouped results match DuckDB") {
    val recs = Datasets.cell(N).toSeq
    val input = flatDF(Seq("caller", "duration"),
      recs.map(r => Seq(r.get("caller").get.asInstanceOf[JString].v,
        r.get("duration").get.asInstanceOf[JLong].v)))
    val q2 = Engine.run(dataset("cell", LayoutKind.Amax), Queries.cellQ2Grouped, ExecMode.CodeGen)
    Oracle.assertEquivalent(resultToDF(q2),
      "SELECT caller, MAX(CAST(duration AS BIGINT)) AS m FROM cell GROUP BY caller",
      "cell" -> input)
    val q3 = Engine.run(dataset("cell", LayoutKind.Amax), Queries.cellQ3, ExecMode.CodeGen)
    Oracle.assertEquivalent(resultToDF(q3),
      "SELECT COUNT(*) AS cnt FROM cell WHERE CAST(duration AS BIGINT) >= 600",
      "cell" -> input)
  }

  test("oracle: sensors Q1-Q3 match DuckDB over the unnested readings") {
    val recs = Datasets.sensors(N).toSeq
    val flat = for {
      r <- recs
      JArray(reads) = r.get("readings").get: @unchecked
      rd <- reads
    } yield Seq(
      r.get("sensor_id").get.asInstanceOf[JLong].v,
      r.get("report_time").get.asInstanceOf[JLong].v,
      rd.asInstanceOf[JObject].get("temp").get.asInstanceOf[JDouble].v)
    val input = flatDF(Seq("sensor_id", "report_time", "temp"), flat)
    val amax = dataset("sensors", LayoutKind.Amax)
    Oracle.assertEquivalent(resultToDF(Engine.run(amax, Queries.sensorsQ1, ExecMode.CodeGen)),
      "SELECT COUNT(*) AS cnt FROM readings", "readings" -> input)
    Oracle.assertEquivalent(resultToDF(Engine.run(amax, Queries.sensorsQ2, ExecMode.CodeGen)),
      "SELECT MAX(CAST(temp AS DOUBLE)) AS mx, MIN(CAST(temp AS DOUBLE)) AS mn FROM readings",
      "readings" -> input)
    Oracle.assertEquivalent(resultToDF(Engine.run(amax, Queries.sensorsQ3Grouped, ExecMode.CodeGen)),
      "SELECT CAST(sensor_id AS BIGINT) AS sid, MAX(CAST(temp AS DOUBLE)) AS max_temp " +
        "FROM readings GROUP BY sid", "readings" -> input)
  }

  test("oracle: tweet Q2/Q3 match DuckDB over flattened tweets") {
    val recs = Datasets.tweet2(N).toSeq
    def uname(r: JObject) = r.get("users").get.asInstanceOf[JObject].get("name").get.asInstanceOf[JString].v
    def textLen(r: JObject) = r.get("text").get.asInstanceOf[JString].v.length.toLong
    def hasJobs(r: JObject) = {
      val JArray(tags) = r.get("entities").get.asInstanceOf[JObject].get("hashtags").get: @unchecked
      tags.exists(_.asInstanceOf[JObject].get("text").contains(JString("jobs")))
    }
    val input = flatDF(Seq("uname", "textlen", "has_jobs"),
      recs.map(r => Seq(uname(r), textLen(r), hasJobs(r))))
    val amax = dataset("tweet_2", LayoutKind.Amax)
    Oracle.assertEquivalent(resultToDF(Engine.run(amax, Queries.tweetQ2Grouped, ExecMode.CodeGen)),
      "SELECT uname, MAX(CAST(textlen AS BIGINT)) AS a FROM tw GROUP BY uname", "tw" -> input)
    Oracle.assertEquivalent(resultToDF(Engine.run(amax, Queries.tweetQ3Grouped, ExecMode.CodeGen)),
      "SELECT uname, COUNT(*) AS c FROM tw WHERE has_jobs = 'true' GROUP BY uname", "tw" -> input)
  }

  test("oracle: wos Q2/Q3 match DuckDB over flattened publications") {
    val recs = Datasets.wos(N).toSeq
    def meta(r: JObject) = r.get("static_data").get.asInstanceOf[JObject]
      .get("fullrecord_metadata").get.asInstanceOf[JObject]
    val subjRows = for {
      r <- recs
      JArray(subs) = meta(r).get("category_info").get.asInstanceOf[JObject]
        .get("subjects").get.asInstanceOf[JObject].get("subject").get: @unchecked
      s <- subs
      o = s.asInstanceOf[JObject]
    } yield Seq(o.get("ascatype").get.asInstanceOf[JString].v, o.get("value").get.asInstanceOf[JString].v)
    val subjInput = flatDF(Seq("ascatype", "v"), subjRows)
    val amax = dataset("wos", LayoutKind.Amax)
    Oracle.assertEquivalent(resultToDF(Engine.run(amax, Queries.wosQ2Grouped, ExecMode.CodeGen)),
      "SELECT v, COUNT(*) AS cnt FROM subj WHERE ascatype = 'extended' GROUP BY v",
      "subj" -> subjInput)

    // Q3: countries co-publishing with USA (computed over the union-typed
    // address_name: array = multi-author, object = single-author).
    val countryRows = for {
      r <- recs
      an = meta(r).get("addresses").get.asInstanceOf[JObject].get("address_name").get
      if an.isInstanceOf[JArray]
      countries = an.asInstanceOf[JArray].items
        .map(_.asInstanceOf[JObject].get("address_spec").get.asInstanceOf[JObject]
          .get("country").get.asInstanceOf[JString].v).distinct
      if countries.length > 1 && countries.contains("USA")
      c <- countries if c != "USA"
    } yield Seq(c)
    val cInput = flatDF(Seq("country"), countryRows)
    Oracle.assertEquivalent(resultToDF(Engine.run(amax, Queries.wosQ3Grouped, ExecMode.CodeGen)),
      "SELECT country, COUNT(*) AS cnt FROM c GROUP BY country", "c" -> cInput)
  }

  // 3. Pushdown behaviour ----------------------------------------------

  test("AMAX zone maps prune leaves for the sensors time-range query without changing results") {
    val amax = dataset("sensors", LayoutKind.Amax)
    amax.forceFullMerge()
    val plan = Queries.sensorsQ4Grouped(sensorsDay)
    assert(Engine.zonePredicate(amax, plan) != null, "range filter must yield a zone predicate")
    val open = dataset("sensors", LayoutKind.Open)
    assert(canonical(Engine.run(amax, plan, ExecMode.CodeGen)) ==
           canonical(Engine.run(open, plan, ExecMode.Interpreted)))
  }

  test("pure-count plans project zero columns") {
    val amax = dataset("cell", LayoutKind.Amax)
    val cols = Engine.neededColumns(amax, Queries.pureCount)
    assert(cols != null && cols.isEmpty)
  }

  test("projection analysis pulls only referenced subtrees") {
    val ds = dataset("cell", LayoutKind.Amax)
    val cols = Engine.neededColumns(ds, Queries.cellQ2Grouped)
    val paths = cols.map(ds.schema.column(_).path).toSet
    assert(paths == Set("caller", "duration"))
  }
}
