package repro.lake

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.collection.mutable
import scala.util.Random

/** One column extracted from a data-lake table, with its metadata.
  *
  * Mirrors the paper's setting: for Webtable the key column of each table is
  * extracted, for Wikitable the max-distinct column — so one column per
  * table, and `id` doubles as the table id. `cells` are the *distinct* cell
  * values in their natural order (the paper models columns as sets for
  * equi-joins); `entities` is the parallel sequence of latent entity ids
  * used only by the "expert" ground truth of Table 7 (noise cells get id -1).
  */
final case class LakeColumn(
    id: Long,
    tableTitle: String,
    colName: String,
    context: String,
    domain: Int,
    anchor: Int, // latent provenance group (-1 = none); diagnostics only
    style: Int,  // latent rendering style; diagnostics only
    cells: Seq[String],
    entities: Seq[Long]) {
  def size: Int = cells.length
}

/** Deterministic synthetic data-lake generator (Webtable / Wikitable stand-in).
  *
  * Each column picks a domain (Zipf over domains), a size (log-normal,
  * clamped to [minCells, maxCells]) and Zipf-samples distinct entities from
  * the domain vocabulary; cells are rendered canonical or as surface
  * variants. Cells are kept in near-frequency order with light shuffling —
  * the "natural order" whose partial predictability the paper's cell-shuffle
  * ablation (Tables 11–12) depends on.
  *
  * Generation is a pure function of (config, id, salt), so the driver, the
  * executors and the tests all agree on every column without any I/O.
  */
object LakeGenerator {

  /** Salt added to query ids so queries never collide with repository ids. */
  val QuerySalt: Long = 0x51ab9L

  /** Entity indices forming anchor `a` of `domain` (shared provenance). */
  def anchorMembers(cfg: LakeConfig, domain: Int, a: Int): Array[Int] = {
    val out = mutable.LinkedHashSet.empty[Int]
    var j = 0
    while (out.size < cfg.anchorSize && j < cfg.anchorSize * 4) {
      val h = Words.mix(cfg.seed, 0xa2c407L, domain.toLong, a.toLong, j.toLong)
      out += (((h % cfg.vocabPerDomain) + cfg.vocabPerDomain) % cfg.vocabPerDomain).toInt
      j += 1
    }
    out.toArray
  }

  /** Generate the column with the given id; pure and deterministic. */
  def genColumn(cfg: LakeConfig, id: Long, salt: Long = 0L): LakeColumn = {
    val r = new Random(Words.mix(cfg.seed, id, salt, 0xc01dL))
    val domain = sampleZipf(r, cfg.nDomains, cfg.domainAlpha)
    val size = {
      val raw = math.exp(cfg.sizeLogMean + cfg.sizeLogStd * r.nextGaussian())
      math.max(cfg.minCells, math.min(cfg.maxCells, math.round(raw).toInt))
    }
    // Rendering style: 0 (canonical) is the most common format.
    val style = if (r.nextDouble() < 0.4) 0 else 1 + r.nextInt(math.max(1, cfg.nStyles - 1))
    // Provenance: anchored columns draw most cells from a shared subset.
    val anchor = if (r.nextDouble() < cfg.anchorRate) r.nextInt(cfg.anchorsPerDomain) else -1
    val members = if (anchor >= 0) anchorMembers(cfg, domain, anchor) else null
    // Per-column fidelity jitter spreads joinability over a continuum
    // instead of clustering at a plateau.
    val fidelity = math.max(0.5, math.min(1.0,
      cfg.anchorFidelity + (r.nextDouble() - 0.5) * 0.4))

    // Sample distinct entity ranks until we have `size` of them.
    val picked = mutable.LinkedHashSet.empty[Int]
    var attempts = 0
    val maxAttempts = size * 30 + 200
    while (picked.size < size && attempts < maxAttempts) {
      if (members != null && r.nextDouble() < fidelity)
        picked += members(sampleZipf(r, members.length, cfg.zipfAlpha))
      else
        picked += sampleZipf(r, cfg.vocabPerDomain, cfg.zipfAlpha)
      attempts += 1
    }
    // Near-frequency order: sort by rank, then a light adjacent shuffle.
    val ranks = picked.toArray.sorted
    var i = 0
    while (i < ranks.length - 1) {
      if (r.nextDouble() < 0.2) { val t = ranks(i); ranks(i) = ranks(i + 1); ranks(i + 1) = t }
      i += 2
    }

    val cells = mutable.ArrayBuffer.empty[String]
    val ents = mutable.ArrayBuffer.empty[Long]
    val seen = mutable.HashSet.empty[String]
    ranks.foreach { rank =>
      if (r.nextDouble() < cfg.noiseCellRate) {
        val nc = Words.NoiseCells(r.nextInt(Words.NoiseCells.length))
        if (seen.add(nc)) { cells += nc; ents += -1L }
      }
      val cell = Words.renderCell(cfg, domain, rank, style)
      if (seen.add(cell)) { cells += cell; ents += Words.entityId(domain, rank) }
    }

    val dn = Words.domainName(cfg, domain)
    val colName = r.nextInt(4) match {
      case 0 => dn
      case 1 => dn.capitalize
      case 2 => dn + "_name"
      case _ => dn + "s"
    }
    // Anchored tables share a provenance word in their titles (same-source
    // tables in a real lake share caption vocabulary).
    val title =
      if (anchor >= 0) s"${dn.capitalize} ${Words.anchorWord(cfg, domain, anchor)}"
      else s"${dn.capitalize} ${Words.word(r)}"
    LakeColumn(id, title, colName, Words.context(cfg, domain, r), domain,
      anchor, style, cells.toVector, ents.toVector)
  }

  /** Repository of `n` columns with ids [idOffset, idOffset + n). */
  def columns(spark: SparkSession, cfg: LakeConfig, n: Long,
              idOffset: Long = 0L): Dataset[LakeColumn] = {
    import spark.implicits._
    spark.range(n).map(i => genColumn(cfg, i + idOffset))
  }

  /** Query workload: ids disjoint from any repository (different salt),
    * generated on the driver (small, no Spark round-trip needed).
    */
  def queriesLocal(cfg: LakeConfig, n: Int): Seq[LakeColumn] =
    (0 until n).map(i => genColumn(cfg, i + 1000000000L, QuerySalt))

  /** Columns whose size falls in [lo, hi]; ids drawn from a salted stream so
    * each band is an independent sample (used by Tables 8 and 15). The
    * result is range-partitioned by id into `defaultParallelism` partitions,
    * so [[repro.core.DeepJoin.encodeAll]] encodes it in parallel.
    */
  def columnsInSizeBand(spark: SparkSession, cfg: LakeConfig, n: Long,
                        lo: Int, hi: Int, salt: Long): Dataset[LakeColumn] = {
    import spark.implicits._
    // Oversample, filter to the band, take the first n by id for determinism.
    val oversample = n * oversampleFactor(hi)
    spark.range(oversample)
      .map(i => genColumn(cfg, i, salt))
      .filter((c: LakeColumn) => c.size >= lo && c.size <= hi)
      .orderBy("id")
      .limit(n.toInt)
      .repartitionByRange(spark.sparkContext.defaultParallelism, $"id")
  }

  /** Same, but on the driver (for query workloads per size band). */
  def queriesInSizeBandLocal(cfg: LakeConfig, n: Int, lo: Int, hi: Int): Seq[LakeColumn] = {
    val out = mutable.ArrayBuffer.empty[LakeColumn]
    var i = 0L
    val limit = n.toLong * oversampleFactor(hi) + 1000
    while (out.size < n && i < limit) {
      val c = genColumn(cfg, i + 2000000000L, QuerySalt)
      if (c.size >= lo && c.size <= hi) out += c
      i += 1
    }
    out.toVector
  }

  private def oversampleFactor(hi: Int): Long = {
    // Log-normal mass in a band is at least a few percent for the bands the
    // benches use; 40x oversampling is comfortably enough and cheap.
    if (hi >= 50) 40L else 12L
  }

  /** Zipf(alpha) sample over ranks 0..n-1 by inverse-CDF on cached weights. */
  private val cdfCache = new java.util.concurrent.ConcurrentHashMap[(Int, Long), Array[Double]]()

  private def cdf(n: Int, alpha: Double): Array[Double] = {
    val key = (n, java.lang.Double.doubleToLongBits(alpha))
    var arr = cdfCache.get(key)
    if (arr == null) {
      arr = new Array[Double](n)
      var s = 0.0
      var i = 0
      while (i < n) { s += 1.0 / math.pow(i + 1.0, alpha); arr(i) = s; i += 1 }
      var j = 0
      while (j < n) { arr(j) /= s; j += 1 }
      cdfCache.putIfAbsent(key, arr)
    }
    arr
  }

  private def sampleZipf(r: Random, n: Int, alpha: Double): Int = {
    val c = cdf(n, alpha)
    val u = r.nextDouble()
    val idx = java.util.Arrays.binarySearch(c, u)
    val pos = if (idx >= 0) idx else -idx - 1
    math.min(pos, n - 1)
  }
}
