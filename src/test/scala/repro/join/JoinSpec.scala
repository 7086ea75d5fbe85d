package repro.join

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.embed.CellEmbedder
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}

object JoinFixtures {
  val cfg: LakeConfig = LakeConfig.webtable()
  lazy val repo: Seq[repro.lake.LakeColumn] =
    (0 until 400).map(i => LakeGenerator.genColumn(cfg, i))
  lazy val queries: Seq[repro.lake.LakeColumn] = LakeGenerator.queriesLocal(cfg, 8)

  /** Brute-force exact equi top-k with the repo-wide tie-break. */
  def bruteEquiTopK(q: Seq[String], k: Int): Seq[(Long, Double)] =
    repo.map(c => (c.id, Joinability.equiJn(q, c.cells)))
      .filter(_._2 > 0)
      .sortBy { case (id, jn) => (-jn, id) }
      .take(k)

  /** Brute-force exact semantic top-k. */
  def bruteSemTopK(q: Seq[String], tau: Double, k: Int): Seq[(Long, Double)] = {
    val ce = CellEmbedder.default
    val qv = ce.embedColumn(q)
    repo.map(c => (c.id, Joinability.semanticJn(qv, ce.embedColumn(c.cells), tau)))
      .filter(_._2 > 0)
      .sortBy { case (id, jn) => (-jn, id) }
      .take(k)
  }
}

class JoinabilityUnitSpec extends AnyFunSuite {
  test("equiJn counts containment normalized by |Q|") {
    assert(Joinability.equiJn(Seq("a", "b", "c", "d"), Seq("b", "d", "x")) == 0.5)
  }
  test("equiJn of an empty query is 0") {
    assert(Joinability.equiJn(Seq.empty, Seq("a")) == 0.0)
  }
  test("equiJn is 1 for a subset query") {
    assert(Joinability.equiJn(Seq("a", "b"), Seq("a", "b", "c")) == 1.0)
  }
  test("equiJn is asymmetric") {
    val a = Seq("a", "b"); val b = Seq("a", "b", "c", "d")
    assert(Joinability.equiJn(a, b) != Joinability.equiJn(b, a))
  }
  test("semanticJn matches identical vectors") {
    val ce = CellEmbedder.default
    val q = ce.embedColumn(Seq("alpha", "beta"))
    assert(Joinability.semanticJn(q, q, tau = 0.1) == 1.0)
  }
  test("semanticJn with tau 0 only matches identical cells") {
    val ce = CellEmbedder.default
    val q = ce.embedColumn(Seq("alpha", "beta"))
    val x = ce.embedColumn(Seq("alpha", "gamma"))
    assert(Joinability.semanticJn(q, x, tau = 1e-6) == 0.5)
  }
  test("semanticJn is at least equiJn for string-rendered columns") {
    val q = Seq("alpha", "beta", "gamma")
    val x = Seq("alpha", "betaa", "delta") // one exact + one near match
    val ce = CellEmbedder.default
    val sem = Joinability.semanticJn(ce.embedColumn(q), ce.embedColumn(x), 0.9)
    assert(sem >= Joinability.equiJn(q, x))
  }
}

class JoinabilitySparkSpec extends SparkSpec {
  import JoinFixtures._

  test("equi overlap counts agree with DuckDB") {
    import spark.implicits._
    import org.apache.spark.sql.functions._
    val ds = spark.createDataset(repo.take(100))
    val got = Joinability.equiSelfJoin(spark, ds, 0.2)
      .select($"xid".cast("string").as("xid"), $"yid".cast("string").as("yid"), $"jn")
    assert(got.count() > 0)
    val cells = ds.select($"id".cast("string").as("id"), explode($"cells").as("cell"))
    repro.Oracle.assertEquivalent(got,
      """WITH c AS (SELECT DISTINCT id, cell FROM cells),
        |     s AS (SELECT id, COUNT(*) AS n FROM c GROUP BY id)
        |SELECT a.id AS xid, b.id AS yid, CAST(COUNT(*) AS DOUBLE) / s.n AS jn
        |FROM c a JOIN c b ON a.cell = b.cell AND a.id <> b.id JOIN s ON s.id = a.id
        |GROUP BY a.id, b.id, s.n HAVING CAST(COUNT(*) AS DOUBLE) / s.n >= 0.2""".stripMargin,
      "cells" -> cells)
  }
  private def col(id: Long, cells: Seq[String]): LakeColumn =
    LakeColumn(id, "t", "c", "", 0, -1, 0, cells, cells.indices.map(_.toLong))

  /** Where JOSIE `topK` differs from brute-force `equiJn` on the ranking or
    * jn values of `qs` at `k`, or `equiSelfJoin` at 0.5 from the brute-force
    * pair set; empty when all agree. Runs one Spark job, the self-join.
    */
  private def equiDisagreements(cols: Seq[LakeColumn], qs: Seq[LakeColumn], k: Int): Seq[String] = {
    import spark.implicits._
    val josie = Josie.build(cols.map(c => (c.id, c.cells)))
    val topK = qs.flatMap { q =>
      val brute = cols.map(x => (x.id, Joinability.equiJn(q.cells, x.cells)))
        .filter(_._2 > 0).sortBy { case (id, jn) => (-jn, id) }.take(k)
      val got = josie.topK(q.cells, k)
      if (got == brute) Nil else Seq(s"JOSIE, query ${q.cells}, k=$k: $got != $brute")
    }
    val pairs = Joinability.equiSelfJoin(spark, spark.createDataset(cols), 0.5)
      .as[(Long, Long, Double)].collect().toSet
    val expPairs = (for {
      a <- cols; b <- cols if a.id != b.id
      jn = Joinability.equiJn(a.cells, b.cells) if jn >= 0.5
    } yield (a.id, b.id, jn)).toSet
    topK ++ (if (pairs == expPairs) Nil else Seq(s"equiSelfJoin: $pairs != $expPairs"))
  }

  test("repeated cells count once: jn <= 1 and JOSIE, equiSelfJoin and equiJn agree") {
    val cols = Seq(
      col(1, Seq("a", "a", "a", "b")),
      col(2, Seq("a", "b", "c", "d")),
      col(3, Seq("b", "b", "c")),
      col(4, Seq("x", "x", "y")),
      col(5, Seq("a", "c", "c", "c", "e")))
    val qs = Seq(col(100, Seq("a", "a", "b")), col(101, Seq("c", "c", "x", "b")),
      col(102, Seq("a", "b", "c", "a")))
    qs.foreach(q => cols.foreach(x => assert(Joinability.equiJn(q.cells, x.cells) <= 1.0)))
    assert(equiDisagreements(cols, qs, 3).isEmpty)
  }
  test("JOSIE, equiSelfJoin and brute-force equiJn agree on adversarial columns (property)") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    import org.scalacheck.Prop.propBoolean
    // Empty and blank strings, case, combining and precomposed accents,
    // CJK, a surrogate pair, and repeats (each column draws from 13 values).
    val pool = Seq("", " ", "a", "A", "ab", "a b", "naïve", "nai\u0308ve", "ünïcödé",
      "日本語", "東京", "東京都", "\ud83d\ude00")
    val column = Gen.choose(0, 8).flatMap(n => Gen.listOfN(n, Gen.oneOf(pool)))
    val input = for {
      cells <- Gen.choose(0, 7).flatMap(Gen.listOfN(_, column))
      qCells <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, column))
      kSel <- Gen.choose(0, 3)
    } yield (cells :+ Nil, qCells, kSel) // always one column with no cells
    val prop = Prop.forAll(input) { case (cells, qCells, kSel) =>
      val cols = cells.zipWithIndex.map { case (cs, i) => col(10L + i, cs) }
      val qs = qCells.zipWithIndex.map { case (cs, i) => col(1000L + i, cs) }
      val k = Seq(0, 1, cols.size, cols.size + 5)(kSel)
      val bad = equiDisagreements(cols, qs, k)
      bad.isEmpty :| bad.mkString("; ")
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(30), prop)
    assert(res.passed, res.status.toString)
  }
  test("equiSelfJoin finds exactly the pairs above the threshold") {
    import spark.implicits._
    val cols = repo.take(120)
    val ds = spark.createDataset(cols)
    val got = Joinability.equiSelfJoin(spark, ds, 0.5).as[(Long, Long, Double)]
      .collect().map(p => (p._1, p._2)).toSet
    val exp = (for {
      a <- cols; b <- cols if a.id != b.id
      jn = Joinability.equiJn(a.cells, b.cells) if jn >= 0.5
    } yield (a.id, b.id)).toSet
    assert(got == exp)
  }
}

class JosieSpec extends AnyFunSuite {
  import JoinFixtures._
  private lazy val josie = Josie.build(repo.map(c => (c.id, c.cells)))

  test("topK equals brute force on all queries (k=10)") {
    queries.foreach { q =>
      assert(josie.topK(q.cells, 10) == bruteEquiTopK(q.cells, 10), s"query ${q.id}")
    }
  }
  test("topK equals brute force for k=1 and k=50") {
    queries.take(4).foreach { q =>
      assert(josie.topK(q.cells, 1) == bruteEquiTopK(q.cells, 1))
      assert(josie.topK(q.cells, 50) == bruteEquiTopK(q.cells, 50))
    }
  }
  test("repository columns are their own best match") {
    repo.take(10).foreach { c =>
      val top = josie.topK(c.cells, 1)
      assert(top.head._2 == 1.0)
    }
  }
  test("unknown tokens yield no results") {
    assert(josie.topK(Seq("zzz-unseen-1", "zzz-unseen-2"), 5).isEmpty)
  }
  test("empty query yields no results") {
    assert(josie.topK(Seq.empty, 5).isEmpty)
    assert(josie.topK(queries.head.cells, 0).isEmpty) // k = 0 asks for nothing
  }
  test("jn values are normalized by the distinct query size") {
    val q = Seq("a", "a") ++ repo.head.cells.take(3) // duplicate cell
    val res = josie.topK(q, 3)
    assert(res.forall(_._2 <= 1.0))
    val distinctSize = q.distinct.size
    res.foreach { case (_, jn) =>
      val ov = math.round(jn * distinctSize)
      assert(math.abs(jn - ov.toDouble / distinctSize) < 1e-9)
    }
  }
  test("results are sorted by jn desc then id asc") {
    val res = josie.topK(queries.head.cells, 20)
    val sorted = res.sortBy { case (id, jn) => (-jn, id) }
    assert(res == sorted)
  }
  test("consecutive queries are independent (state reset)") {
    val q = queries.head
    val first = josie.topK(q.cells, 10)
    val second = josie.topK(q.cells, 10)
    assert(first == second)
  }
  test("topK called from 4 threads equals the serial result") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    def all() = for (q <- queries ++ repo.take(40); k <- Seq(1, 10, 50)) yield josie.topK(q.cells, k)
    val serial = all()
    val parallel = Await.result(Future.sequence(Seq.fill(4)(Future(all()))), 5.minutes)
    parallel.foreach(p => assert(p == serial))
  }
}

class LshEnsembleSpec extends AnyFunSuite {
  import JoinFixtures._
  private lazy val lsh = LshEnsemble.build(repo.map(c => (c.id, c.cells)))

  test("MinHash jaccard estimate is close to the true jaccard") {
    val mh = new MinHash(sig = 128)
    val a = (0 until 100).map(i => s"t$i")
    val b = (50 until 150).map(i => s"t$i") // true J = 50/150 = 1/3
    val est = mh.jaccard(mh.signature(a), mh.signature(b))
    assert(math.abs(est - 1.0 / 3) < 0.12, s"estimate $est")
  }
  test("MinHash of identical sets agrees on all slots") {
    val mh = new MinHash()
    val s = Seq("x", "y", "z")
    assert(mh.jaccard(mh.signature(s), mh.signature(s)) == 1.0)
  }
  test("MinHash signature is order-insensitive") {
    val mh = new MinHash()
    assert(mh.signature(Seq("a", "b", "c")).toSeq == mh.signature(Seq("c", "a", "b")).toSeq)
  }
  test("numColumns counts the repository") {
    assert(lsh.numColumns == repo.size)
  }
  test("topK returns at most k results with estimates in [0, 1]") {
    val res = lsh.topK(queries.head.cells, 10)
    assert(res.size <= 10)
    assert(res.forall { case (_, c) => c >= 0.0 && c <= 1.0 })
  }
  test("a repository column retrieves itself in its top results") {
    val c = repo(5)
    val res = lsh.topK(c.cells, 10)
    assert(res.map(_._1).contains(c.id))
  }
  test("approximate precision@10 is above random but below exact") {
    val hits = queries.map { q =>
      val exact = bruteEquiTopK(q.cells, 10).map(_._1).toSet
      if (exact.isEmpty) 1.0
      else lsh.topK(q.cells, 10).map(_._1).count(exact.contains).toDouble /
        math.min(10, exact.size)
    }
    val p = hits.sum / hits.size
    assert(p > 0.15 && p < 1.0, s"precision $p")
  }
  test("empty query returns nothing") {
    assert(lsh.topK(Seq.empty, 5).isEmpty)
  }
}

class PexesoSpec extends AnyFunSuite {
  import JoinFixtures._
  private lazy val px = Pexeso.build(repo.map(c => (c.id, c.cells)))

  test("topK equals brute force at tau=0.9 (bounded distance filter is safe)") {
    queries.take(5).foreach { q =>
      val got = px.topK(q.cells, 0.9, 10)
      val exp = bruteSemTopK(q.cells, 0.9, 10)
      assert(got == exp, s"query ${q.id}")
    }
  }
  test("topK equals brute force at tau=0.7") {
    queries.take(3).foreach { q =>
      assert(px.topK(q.cells, 0.7, 10) == bruteSemTopK(q.cells, 0.7, 10))
    }
  }
  test("a repository column is its own perfect match") {
    repo.take(5).foreach { c =>
      val top = px.topK(c.cells, 0.5, 1)
      assert(top.head._2 == 1.0)
    }
  }
  test("larger tau never reduces jn for a fixed pair") {
    val q = queries.head
    val ids = repo.take(20).map(_.id)
    val lo = px.jnMap(q.cells, 0.7, ids)
    val hi = px.jnMap(q.cells, 0.9, ids)
    ids.foreach(id => assert(hi(id) >= lo(id)))
  }
  test("jnOf agrees with Joinability.semanticJn") {
    val ce = CellEmbedder.default
    val q = queries.head
    repo.take(10).foreach { x =>
      val direct = Joinability.semanticJn(
        ce.embedColumn(q.cells), ce.embedColumn(x.cells), 0.9)
      assert(math.abs(px.jnOf(q.cells, 0.9, x.id) - direct) < 1e-9)
    }
  }
  test("jnOf of an unknown column id is 0") {
    assert(px.jnOf(queries.head.cells, 0.9, 999999L) == 0.0)
  }
  test("empty query returns no results") {
    assert(px.topK(Seq.empty, 0.9, 5).isEmpty)
    assert(px.topK(queries.head.cells, 0.9, 0).isEmpty) // k = 0 asks for nothing
  }
  test("a pair matches at tau = its distance and not one float below (filter margin)") {
    val ce = CellEmbedder.default
    val cells = repo.take(60).flatMap(_.cells).distinct.toIndexedSeq
    val r = new scala.util.Random(0xb0dL)
    // Random pairs sit near the typical distance; a one-letter edit is close.
    val pairs = Seq.fill(300)((cells(r.nextInt(cells.size)), cells(r.nextInt(cells.size)))) ++
      cells.take(150).map(c => (c, c + "x"))
    pairs.foreach { case (a, b) =>
      val d = repro.embed.VecOps.l2(ce.embed(a), ce.embed(b))
      val one = Pexeso.build(Seq(7L -> Seq(b)))
      assert(one.topK(Seq(a), d.toDouble, 1) == Seq((7L, 1.0)), s"($a, $b) at $d")
      assert(one.topK(Seq(a), Math.nextDown(d).toDouble, 1).isEmpty, s"($a, $b) below $d")
      // As semanticJn, which compares in double, the double just below d misses.
      val below = Math.nextDown(d.toDouble)
      assert(one.topK(Seq(a), below, 1).isEmpty, s"($a, $b) at the double below $d")
      assert(one.jnMap(Seq(a), d.toDouble, Seq(7L)) == Map(7L -> 1.0), s"jnMap ($a, $b) at $d")
      assert(one.jnMap(Seq(a), below, Seq(7L)) == Map(7L -> 0.0), s"jnMap ($a, $b) below $d")
      val pair = Seq(col(1L, Seq(a)), col(2L, Seq(b)))
      assert(Pexeso.semanticSelfJoin(pair, d.toDouble, 1.0).contains((1L, 2L, 1.0)))
      assert(!Pexeso.semanticSelfJoin(pair, below, 1.0).contains((1L, 2L, 1.0)))
    }
  }
  test("topK, jnMap and semanticSelfJoin agree with brute-force semanticJn on adversarial columns (property)") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    val ce = CellEmbedder.default
    // Empty strings, unicode, case and one-letter variants, repeats.
    val pool = Seq("", " ", "alpha", "Alpha", "alpah", "alpha.", "beta", "betaa",
      "gamma", "a", "ab", "naive", "naïve", "ünïcödé", "日本語", "東京", "東京都")
    val column = Gen.choose(0, 8).flatMap(n => Gen.listOfN(n, Gen.oneOf(pool)))
    val input = for {
      nCols <- Gen.choose(0, 7)
      cols <- Gen.listOfN(nCols, column)
      q <- Gen.choose(1, 6).flatMap(n => Gen.listOfN(n, Gen.oneOf(pool)))
      tau <- Gen.oneOf(0.7, 0.8, 0.9, 1.3) // 0.8f > 0.8; the others round down
      kSel <- Gen.choose(0, 3)
    } yield (cols :+ Nil, q, tau, kSel) // always one column with no cells
    val prop = Prop.forAll(input) { case (cells, q, tau, kSel) =>
      val cols = cells.zipWithIndex.map { case (cs, i) => col(10L + i, cs) }
      val n = cols.size
      val k = Seq(0, 1, n, n + 5)(kSel)
      val idx = Pexeso.build(cols.map(c => (c.id, c.cells)))
      val qv = ce.embedColumn(q)
      val jn = cols.map(c => c.id -> Joinability.semanticJn(qv, ce.embedColumn(c.cells), tau)).toMap
      val brute = jn.toSeq.filter(_._2 > 0).sortBy { case (id, j) => (-j, id) }.take(k)
      val selfBrute = (for {
        a <- cols if a.cells.nonEmpty; b <- cols if a.id != b.id
        j = Joinability.semanticJn(ce.embedColumn(a.cells), ce.embedColumn(b.cells), tau) if j >= 0.5
      } yield (a.id, b.id, j)).toSet
      idx.topK(q, tau, k) == brute &&
        idx.jnMap(q, tau, cols.map(_.id)) == jn &&
        Pexeso.semanticSelfJoin(cols, tau, 0.5).toSet == selfBrute
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }
  test("topK called from 4 threads equals the serial result") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    def all() = for (q <- queries; tau <- Seq(0.7, 0.9)) yield px.topK(q.cells, tau, 10)
    val serial = all()
    val parallel = Await.result(Future.sequence(Seq.fill(4)(Future(all()))), 5.minutes)
    parallel.foreach(p => assert(p == serial))
  }

  private def col(id: Long, cells: Seq[String]): LakeColumn =
    LakeColumn(id, "", "", "", 0, -1, 0, cells, cells.map(_ => 0L))
}

class PexesoSelfJoinSpec extends AnyFunSuite {
  import JoinFixtures._

  test("semanticSelfJoin matches pairwise computation") {
    val cols = repo.take(60)
    val got = Pexeso.semanticSelfJoin(cols, tau = 0.9, t = 0.6)
      .map(p => (p._1, p._2)).toSet
    val ce = CellEmbedder.default
    val vecs = cols.map(c => c.id -> ce.embedColumn(c.cells)).toMap
    val exp = (for {
      a <- cols; b <- cols if a.id != b.id
      jn = Joinability.semanticJn(vecs(a.id), vecs(b.id), 0.9) if jn >= 0.6
    } yield (a.id, b.id)).toSet
    assert(got == exp)
  }
  test("semanticSelfJoin returns jn values above the threshold") {
    val cols = repo.take(40)
    Pexeso.semanticSelfJoin(cols, 0.9, 0.5).foreach { case (_, _, jn) =>
      assert(jn >= 0.5 && jn <= 1.0)
    }
  }
}
