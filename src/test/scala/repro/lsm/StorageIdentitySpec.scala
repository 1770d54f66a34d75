package repro.lsm

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.datasets.Datasets

/** Byte-identity guard for the on-disk format: small `cell` and `tweet_2`
  * datasets, built with updates, deletes, flushes and tiering merges on all
  * four layouts, must produce component files whose SHA-256 digests equal
  * the constants below.
  *
  * The constants were computed with the schema-driven striper and the
  * eagerly parsed APAX/AMAX column directories, before the record-driven
  * striper and the on-demand directories replaced them. A change that is
  * meant to leave storage untouched keeps this test green; a change that
  * alters the format on purpose recomputes the constants and says why.
  */
class StorageIdentitySpec extends AnyFunSuite {

  private val config = LsmConfig(
    pageSize = 8 * 1024,
    memBudgetBytes = 48 * 1024,
    amaxLeafRecords = 120,
    maxComponents = 3,
    bufferCachePages = 256)

  private def sha256(f: java.io.File): String =
    java.security.MessageDigest.getInstance("SHA-256")
      .digest(java.nio.file.Files.readAllBytes(f.toPath)).map(b => f"$b%02x").mkString

  /** Component file name → digest, for every file the dataset left on disk. */
  private def digests(ds: LsmDataset): Map[String, String] =
    ds.dir.listFiles().filter(_.isFile).map(f => f.getName -> sha256(f)).toMap

  private def newDataset(name: String, layout: LayoutKind, indexed: Boolean): LsmDataset = {
    val dir = java.nio.file.Files.createTempDirectory(s"identity-$name-${layout.name}").toFile
    val ds = new LsmDataset(name, dir, layout, config, new BufferCache(config.bufferCachePages),
      enablePkIndex = indexed)
    if (indexed) ds.secondaries += new SecondaryIndex("timestamp")
    ds
  }

  /** Inserts, then updates of every fifth key, a delete of every 23rd,
    * and a closing flush; merges follow from the tiering policy.
    */
  private def build(name: String, layout: LayoutKind): LsmDataset = {
    val indexed = name == "tweet_2"
    val n = if (indexed) 600L else 2500L
    val ds = newDataset(name, layout, indexed)
    Datasets.byName(name, n).foreach(ds.upsert)
    ds.flush()
    val updates = Datasets.byName(name, n / 5).map { rec =>
      val JLong(i) = rec.get("id").get: @unchecked
      JObject(rec.fields.map {
        case ("id", _) => "id" -> JLong(i * 5)
        case (k, JLong(v)) if k != "timestamp" => k -> JLong(v + 1)
        case kv => kv
      })
    }
    updates.foreach(ds.upsert)
    (0L until n by 23).foreach(ds.delete)
    ds.flush()
    ds
  }

  private val expected: Map[(String, String), Map[String, String]] = Map(
    ("cell", "open") -> Map(
      "c22.data" -> "e20ff8785365e5d062a7ae9b9f090b184d178a006ce1a51975785922d829dab1",
      "c22.meta" -> "607ea676f113a6647bfbf53b7d34731cf198399c0bc69072da47685c0649c370",
      "c5.data" -> "f7f8ab192192b49c594199fae6797f9bd9dde10bf68e5ffcc31e0332c608e40b",
      "c5.meta" -> "c96f65c989142c6652f2f3d3b601a25e9e46d777f9183bef54a2cfcc98deaca5",
      "c9.data" -> "4587ae9eeabb0d7cee83aa53d4cb7caacc98e282fe5937cb4e04f4861038c380",
      "c9.meta" -> "928be230debe8d19baa8e26ab1f58a5362c442b0b2f53cd0941f3b100a7d608a",
    ),
    ("cell", "vb") -> Map(
      "c5.data" -> "2bc74457f0408a34e2492e941b3768de3c3b00a61579eb2aa458cdf789090050",
      "c5.meta" -> "9f3ced735a47a723904e449bc6a93c256e415fa783035cad31d6d6e944f653db",
      "c6.data" -> "2e7aff0493d48c7463995abf8b2671f6e0aaddd67e82f29c2f66800bfd7ddfaa",
      "c6.meta" -> "6c61aa86de2fa26251e2831e27cb0c46de315db5e3bfeddd594b4ce178aa243e",
      "c7.data" -> "90665988c45ab920ae167637d824ac581e4b2af93ee2127225d849348daa9c44",
      "c7.meta" -> "8ab6efb247216e4231a4623b08b5d7c01e7bc4412ae507ad4daf77cade3342ac",
    ),
    ("cell", "apax") -> Map(
      "c5.data" -> "ba202d3b265165ed34193363ae11379d162b30b080d4129eb2472a6f594d19bd",
      "c5.meta" -> "4312676cd265c602aae4de5613528988cb83f1ebd032140d06fa8b03468a4083",
      "c6.data" -> "09777c6a26a3e6e4c56fc3f9829818c654ded47e451051412e56544deeb7a06f",
      "c6.meta" -> "ed61b916716b83cd3bf5875497dec18d7bacffe9f3a7265ada7d4ac764e25da7",
      "c7.data" -> "73bb5fab7758e46d2b38460592a9786b71452a571e68f86a8d7132fc1b093987",
      "c7.meta" -> "b3363bef823a987eb863b2b7df0b8f917bf7e5c94e5221e4533279d599a865c1",
    ),
    ("cell", "amax") -> Map(
      "c5.data" -> "8296481c50c43c875681a73b4805088edbd04b2f2b5c07292475ad6afe0b1039",
      "c5.meta" -> "1d891a28b8a1c616999008c7c0ac4174f46e43781c8f97d80ea2cf0c74b5461a",
      "c6.data" -> "57592a70c39f42852991bcccf27753e758a24acc915f32c099b28a9383c41d01",
      "c6.meta" -> "43c6d5933a56388524ce725d3f9b377eb65f1ff02b3c0fa2263fb4b2dc1eada6",
      "c7.data" -> "a4b036fa930d9d848191f5cb5b08390083bb5dd9c6588fb2e704736400a097be",
      "c7.meta" -> "51bdfaf93610caf4fc6704caf364e6d4e422a6a7102eb81739866def264e9eec",
    ),
    ("tweet_2", "open") -> Map(
      "c24.data" -> "e95eca479f85a8a2a8c2a802b91b361dab42321e328588eb47ff771f9128d4cf",
      "c24.meta" -> "f62736ed35ab4e321230fcf432b80b51b6906a0fb45c072313169dcdd18fa8b3",
      "c5.data" -> "264223b91ade38a80ba8cd5fd4d6f10798b002bfccf8976f6587acf322cbda07",
      "c5.meta" -> "febf426761b891a5efcbbc0b1a974811b8e2f6272527ff7d024aabfb2d63c0f3",
      "c9.data" -> "be34f392ad79c5d43e057dc3f7a8df2813529f136935d87903fe74cab8ba5d39",
      "c9.meta" -> "f3a531bdfda2e16e77d26f0eacee579f930364bc5acaf6928bd52dc1b1938c98",
    ),
    ("tweet_2", "vb") -> Map(
      "c5.data" -> "f4cab9927aa5a5d1d27d81a127930521daed6aa8989bc5080ec344d400448e9d",
      "c5.meta" -> "fc6be7dd3580c801815841a36e8789ad57c3ad2ab039088ff7c7f7d4db106031",
      "c6.data" -> "90a64a5331a392d4a821c64d9f27adb2302a3d7f5c69ee4d076d3a7fe985ed51",
      "c6.meta" -> "c159db5fba847dce88e819ee0ab0670750ed45f869a9ad9b75ce316664a0eabb",
      "c7.data" -> "a02c8468395240992145497249e0ad662f80a86c765781e6322d85e2b0851d73",
      "c7.meta" -> "deca8678aee9d786c6fa62d3a3585975f6f6f11eb94e237a61dcbfc9d9fdfa25",
    ),
    ("tweet_2", "apax") -> Map(
      "c5.data" -> "70dc02edf1ffe62455156e5280b1323e227ee9d67d6f15bc871bae025faad8a0",
      "c5.meta" -> "50e11c7918b5bc1c237030e894ff5d0af3217c8dc668ae4d67dcbf21f7bbcba3",
      "c6.data" -> "ab3da1a3fcc7b57bbcf21e77950c40c9dc293170d1884f5fd98dbd772694110f",
      "c6.meta" -> "a4102cb3652a3eae60891ba19291a82022c53051825bc5d8ca089bd314b2a836",
      "c7.data" -> "2be7e84773312cc8a11262fd28e0d5d740a7deee898b40d6c582a91bfb08e919",
      "c7.meta" -> "d6be97ab407944766855dbbd28f89141878a8e2be6695f9e31fe855413ba4bce",
    ),
    ("tweet_2", "amax") -> Map(
      "c5.data" -> "374d4974c5884405e83f80b6a8fd48ac8beb8551e0b291c2aec6c5413065393b",
      "c5.meta" -> "9a4a5a1fee042e0c14a4b43131f14586f8c96bd32a54e38f28d345bfc0bb57e1",
      "c6.data" -> "2a16b122d497373932bd164f0d13c9ae8e6ddf8e73bf34da4df4388850069844",
      "c6.meta" -> "0261e3b5dcc6e7b1485affddbcc03fe3206b0f17e526bc80ae97e3c9fbc53845",
      "c7.data" -> "128d1b07d5202b5ff66131702992914fd53ad815e3ea2c97f16dd4982c701c63",
      "c7.meta" -> "676990d7c610551f7d7d446b2f4e6f0b61db8faa2d58439abdc055d9400e05a7",
    ),
  )

  for (name <- Seq("cell", "tweet_2"); layout <- LayoutKind.all) {
    test(s"[$name/${layout.name}] component files are byte-identical to the recorded digests") {
      val ds = build(name, layout)
      assert(ds.numMerges > 0, "the build must exercise a merge")
      val got = digests(ds)
      ds.dir.listFiles().foreach(_.delete()); ds.dir.delete()
      val want = expected.getOrElse((name, layout.name), Map.empty)
      assert(got == want, got.toSeq.sorted.map { case (f, d) => s"\"$f\" -> \"$d\"," }
        .mkString(s"\n(\"$name\", \"${layout.name}\") -> Map(\n", "\n", "\n),"))
    }
  }
}
