package repro.embed

import org.scalatest.funsuite.AnyFunSuite
import repro.lake.{LakeColumn, LakeConfig, LakeGenerator}
import repro.text.{Contextualizer, TextOption, Tokenizer}
import repro.train.DiagonalHead

/** [[PlmEmbedder]]'s kernels must reproduce [[ReferencePlmEmbedder]] exactly:
  * `java.util.Arrays.equals`, not a tolerance. Covered: the three size bands
  * of Tables 8 and 15, exact token counts around the kernels' 4-row blocks
  * and fan-out thresholds, all three PLMs, the serial and the parallel
  * (GPU-sim) path, idf pooling on and off, and inputs off the generator's
  * happy path.
  */
class PlmKernelOracleSpec extends AnyFunSuite {
  private val lake = LakeConfig.webtable()
  private val plms = Seq(PlmConfig.distilbert, PlmConfig.mpnet, PlmConfig.bert)

  // The size bands of Tables 8 and 15, with (lo, hi, columns drawn).
  private val bands: Seq[(String, Seq[LakeColumn])] =
    Seq(("5-10", 5, 10, 6), ("11-50", 11, 50, 6), (">50", 51, lake.maxCells, 3)).map {
      case (label, lo, hi, n) => label -> LakeGenerator.queriesInSizeBandLocal(lake, n, lo, hi)
    }

  // Corpus frequencies over every test column: idf pooling weights cells by
  // them, and the contextualizer orders cells by them under the token budget.
  private val frequency: Map[String, Long] =
    bands.flatMap(_._2).flatMap(_.cells.distinct).groupBy(identity).map { case (v, vs) => v -> vs.size.toLong }
  private val ctx = new Contextualizer(TextOption.default, frequency = frequency)

  /** Production and reference embedders with the same settings. */
  private def pairs(head: PlmConfig => Option[EmbeddingHead] = _ => None)
      : Seq[(String, PlmEmbedder, ReferencePlmEmbedder)] =
    for (cfg <- plms; parallel <- Seq(false, true); idf <- Seq(false, true)) yield {
      val h = head(cfg)
      (s"${cfg.name} parallel=$parallel idf=$idf",
        new PlmEmbedder(cfg, ctx, h, parallel = parallel, idfPooling = idf),
        new ReferencePlmEmbedder(cfg, ctx, h, parallel = parallel, idfPooling = idf))
    }

  /** A diagonal head with non-trivial gains, so `embed` exercises the head. */
  private def head(cfg: PlmConfig): Option[EmbeddingHead] = {
    val h = new DiagonalHead(cfg.dim)
    h.g.indices.foreach(i => h.g(i) = ((i * 37) % 11 - 5) * 0.1f)
    Some(h)
  }

  private def assertSame(what: String, a: Array[Float], b: Array[Float]): Unit =
    assert(java.util.Arrays.equals(a, b), s"$what: first difference at " +
      a.indices.find(i => i >= b.length || a(i) != b(i)).getOrElse(-1))

  bands.foreach { case (label, cols) =>
    test(s"encodeCells is bit-identical to the reference kernel on $label cell columns") {
      assert(cols.nonEmpty)
      pairs().foreach { case (name, e, ref) =>
        cols.foreach { c =>
          val cells = ctx.render(c).cells
          assertSame(s"$name column ${c.id}", e.encodeCells(cells), ref.encodeCells(cells))
        }
      }
    }
    test(s"embed with and without a head is bit-identical to the reference on $label cell columns") {
      Seq[PlmConfig => Option[EmbeddingHead]](_ => None, head).foreach { h =>
        pairs(h).foreach { case (name, e, ref) =>
          cols.take(2).foreach { c =>
            assertSame(s"$name head=${e.head.isDefined} column ${c.id}", e.embed(c), ref.embed(c))
          }
        }
      }
    }
  }

  test("encodeCells is bit-identical at exact token counts: every L mod 4 and both sides of the fan-out thresholds") {
    // One token per cell, with repeats, so L is exactly the cell count.
    // The kernels run rows in blocks of 4, and the parallel path fans out
    // from L = 8 (FFN) and L = 16 (attention).
    Seq(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 135).foreach { len =>
      val cells = (0 until len).map(i => s"w${i * 7 % 13}")
      assert(cells.forall(Tokenizer.tokenize(_).size == 1))
      pairs().foreach { case (name, e, ref) =>
        assertSame(s"$name L=$len", e.encodeCells(cells), ref.encodeCells(cells))
      }
    }
  }

  test("edge cases are bit-identical: empty column, single token, no-alphanumeric cell, maxTokens truncation") {
    val long = (0 until 400).map(i => s"w$i")
    val longMulti = (0 until 150).map(i => s"a$i b$i c$i")
    val inputs = Seq(
      "empty" -> Seq.empty[String],
      "single token" -> Seq("alpha"),
      "no-alphanumeric cell" -> Seq("--", "beta"),
      "truncated at maxTokens" -> long,
      "truncated inside a cell" -> longMulti)
    pairs().foreach { case (name, e, ref) =>
      inputs.foreach { case (what, cells) =>
        assertSame(s"$name $what", e.encodeCells(cells), ref.encodeCells(cells))
      }
      val empty = bands.head._2.head.copy(cells = Vector.empty, entities = Vector.empty)
      assertSame(s"$name empty column embed", e.embed(empty), ref.embed(empty))
    }
    assert(ctx.maxTokens == 256 && long.size > 256 && longMulti.size * 3 > 256)
  }
}
