package repro.lake

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** Generator determinism, corpus statistics and latent-structure invariants. */
class WordsSpec extends AnyFunSuite {
  private val cfg = LakeConfig.webtable()

  test("mix is deterministic") {
    assert(Words.mix(1L, 2L, 3L) == Words.mix(1L, 2L, 3L))
  }
  test("mix differs on argument order") {
    assert(Words.mix(1L, 2L) != Words.mix(2L, 1L))
  }
  test("entityCanonical is deterministic") {
    assert(Words.entityCanonical(cfg, 3, 17) == Words.entityCanonical(cfg, 3, 17))
  }
  test("entityCanonical differs across entities") {
    val forms = (0 until 100).map(i => Words.entityCanonical(cfg, 1, i))
    assert(forms.distinct.size > 90)
  }
  test("entityCanonical differs across domains") {
    assert(Words.entityCanonical(cfg, 1, 5) != Words.entityCanonical(cfg, 2, 5))
  }
  test("entityId is unique per (domain, idx)") {
    val ids = for (d <- 0 until 10; i <- 0 until 100) yield Words.entityId(d, i)
    assert(ids.distinct.size == ids.size)
  }
  test("style 0 renders the canonical form") {
    (0 until 50).foreach { i =>
      assert(Words.renderCell(cfg, 2, i, 0) == Words.entityCanonical(cfg, 2, i))
    }
  }
  test("rendering is deterministic per (entity, style)") {
    (0 until 50).foreach { i =>
      assert(Words.renderCell(cfg, 2, i, 1) == Words.renderCell(cfg, 2, i, 1))
    }
  }
  test("non-canonical styles produce some variants") {
    val changed = (0 until 200).count { i =>
      Words.renderCell(cfg, 2, i, 1) != Words.entityCanonical(cfg, 2, i)
    }
    // variantRate fraction of entities render as variants in style 1.
    assert(changed > 200 * cfg.variantRate * 0.4 && changed < 200 * cfg.variantRate * 2.0)
  }
  test("different styles disagree on some entities") {
    val diff = (0 until 200).count { i =>
      Words.renderCell(cfg, 2, i, 1) != Words.renderCell(cfg, 2, i, 2)
    }
    assert(diff > 10)
  }
  test("domainName and anchorWord are deterministic and distinct") {
    assert(Words.domainName(cfg, 4) == Words.domainName(cfg, 4))
    assert(Words.anchorWord(cfg, 4, 0) == Words.anchorWord(cfg, 4, 0))
    assert(Words.anchorWord(cfg, 4, 0) != Words.anchorWord(cfg, 4, 1))
  }
  test("context is nonempty and deterministic in the rng") {
    val r1 = new scala.util.Random(9)
    val r2 = new scala.util.Random(9)
    assert(Words.context(cfg, 1, r1) == Words.context(cfg, 1, r2))
    assert(Words.context(cfg, 1, new scala.util.Random(1)).nonEmpty)
  }
}

class LakeGeneratorSpec extends AnyFunSuite {
  private val cfg = LakeConfig.webtable()

  test("genColumn is deterministic") {
    assert(LakeGenerator.genColumn(cfg, 42) == LakeGenerator.genColumn(cfg, 42))
  }
  test("different ids give different columns") {
    assert(LakeGenerator.genColumn(cfg, 1) != LakeGenerator.genColumn(cfg, 2))
  }
  test("salt changes the column") {
    assert(LakeGenerator.genColumn(cfg, 1, 0) != LakeGenerator.genColumn(cfg, 1, 5))
  }
  test("cells are distinct within a column") {
    (0 until 50).foreach { i =>
      val c = LakeGenerator.genColumn(cfg, i)
      assert(c.cells.distinct.size == c.cells.size, s"column $i has duplicate cells")
    }
  }
  test("cells and entities are parallel sequences") {
    (0 until 50).foreach { i =>
      val c = LakeGenerator.genColumn(cfg, i)
      assert(c.cells.size == c.entities.size)
    }
  }
  test("column sizes respect the configured minimum") {
    (0 until 200).foreach { i =>
      assert(LakeGenerator.genColumn(cfg, i).size >= cfg.minCells - 1)
    }
  }
  test("column sizes respect the configured maximum (plus noise cells)") {
    (0 until 200).foreach { i =>
      assert(LakeGenerator.genColumn(cfg, i).size <= cfg.maxCells * 2)
    }
  }
  test("domains are within range") {
    (0 until 200).foreach { i =>
      val d = LakeGenerator.genColumn(cfg, i).domain
      assert(d >= 0 && d < cfg.nDomains)
    }
  }
  test("anchored columns exist at roughly the configured rate") {
    val n = 500
    val anchored = (0 until n).count(i => LakeGenerator.genColumn(cfg, i).anchor >= 0)
    assert(anchored > n * cfg.anchorRate * 0.7 && anchored < n * cfg.anchorRate * 1.3)
  }
  test("anchor members are within the domain vocabulary") {
    val m = LakeGenerator.anchorMembers(cfg, 3, 1)
    assert(m.nonEmpty && m.forall(i => i >= 0 && i < cfg.vocabPerDomain))
  }
  test("anchor members are deterministic") {
    assert(LakeGenerator.anchorMembers(cfg, 3, 1).toSeq ==
      LakeGenerator.anchorMembers(cfg, 3, 1).toSeq)
  }
  test("same-anchor columns overlap much more than cross-anchor") {
    // Find two same-(domain, anchor, style 0) columns and compare overlap.
    val cols = (0 until 3000).map(i => LakeGenerator.genColumn(cfg, i))
    val groups = cols.filter(c => c.anchor >= 0 && c.style == 0)
      .groupBy(c => (c.domain, c.anchor)).values.filter(_.size >= 2)
    assert(groups.nonEmpty)
    val g = groups.head.take(2)
    val same = g(0).cells.toSet.intersect(g(1).cells.toSet).size.toDouble / g(0).size
    val other = cols.find(c => c.domain != g(0).domain).get
    val cross = g(0).cells.toSet.intersect(other.cells.toSet).size.toDouble / g(0).size
    assert(same > cross)
  }
  test("anchored columns share the anchor title word") {
    val cols = (0 until 2000).map(i => LakeGenerator.genColumn(cfg, i))
    val grouped = cols.filter(_.anchor >= 0).groupBy(c => (c.domain, c.anchor))
      .values.filter(_.size >= 2)
    assert(grouped.nonEmpty)
    grouped.take(5).foreach { g =>
      assert(g.map(_.tableTitle).distinct.size == 1)
    }
  }
  test("queries use a disjoint id space") {
    val qs = LakeGenerator.queriesLocal(cfg, 20)
    assert(qs.forall(_.id >= 1000000000L))
  }
  test("queriesLocal is deterministic") {
    assert(LakeGenerator.queriesLocal(cfg, 5) == LakeGenerator.queriesLocal(cfg, 5))
  }
  test("queriesInSizeBandLocal respects the band") {
    val qs = LakeGenerator.queriesInSizeBandLocal(cfg, 8, 11, 50)
    assert(qs.size == 8)
    assert(qs.forall(q => q.size >= 11 && q.size <= 50))
  }
  test("wikitable config differs from webtable") {
    val w = LakeConfig.wikitable()
    assert(w.nDomains != cfg.nDomains || w.variantRate != cfg.variantRate)
    assert(LakeGenerator.genColumn(w, 1) != LakeGenerator.genColumn(cfg, 1))
  }
}

class LakeSparkSpec extends SparkSpec {
  private val cfg = LakeConfig.webtable()

  test("columns Dataset matches driver-side generation") {
    val ds = LakeGenerator.columns(spark, cfg, 50).collect().sortBy(_.id)
    val local = (0 until 50).map(i => LakeGenerator.genColumn(cfg, i))
    assert(ds.toSeq == local)
  }
  test("columns respects idOffset") {
    val ds = LakeGenerator.columns(spark, cfg, 10, idOffset = 100).collect()
    assert(ds.map(_.id).sorted.toSeq == (100L until 110L).toSeq)
  }
  test("columnsInSizeBand returns n columns inside the band") {
    // The band's first n columns by id, in defaultParallelism partitions.
    val ds = LakeGenerator.columnsInSizeBand(spark, cfg, 30, 11, 50, salt = 7L)
    assert(ds.rdd.getNumPartitions == spark.sparkContext.defaultParallelism)
    val want = Iterator.from(0).map(i => LakeGenerator.genColumn(cfg, i, 7L))
      .filter(c => c.size >= 11 && c.size <= 50).take(30).toSeq
    assert(want.length == 30)
    assert(ds.collect().sortBy(_.id).toSeq == want)
  }
  test("corpus statistics via Spark SQL match DuckDB") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val df = LakeGenerator.columns(spark, cfg, 100)
      .select($"id", $"domain", size($"cells").as("n"))
    val agg = df.groupBy($"domain")
      .agg(count(lit(1)).as("cnt"), sum($"n").as("cells"))
      .select($"domain".cast("string").as("domain"),
        $"cnt".cast("string").as("cnt"), $"cells".cast("string").as("cells"))
    repro.Oracle.assertEquivalent(
      agg,
      "SELECT domain, CAST(COUNT(*) AS VARCHAR) AS cnt, " +
        "CAST(SUM(CAST(n AS BIGINT)) AS VARCHAR) AS cells " +
        "FROM cols GROUP BY domain",
      "cols" -> df.select($"domain".cast("string").as("domain"), $"n".cast("string").as("n")))
  }
}
