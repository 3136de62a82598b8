package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import repro.core.LocalGraph

import scala.jdk.CollectionConverters._
import scala.util.Random

/** A named benchmark workload: queries on a registry dataset, answered in
  * batches by [[repro.distributed.QueryRunner]]. Each is a closed loop: the
  * next batch is sent only after the previous one has been answered. The
  * queries are drawn by the run seed from a committed pool whose answers were
  * cross-checked against an independent baseline (see [[MakeExpected]]).
  *
  * @param batch      queries per `QueryRunner.run` call
  * @param deadlineMs per-query deadline, far above the slowest query seen on
  *                   the seed code, so that a timeout is a real failure
  * @param poolSize   queries in the committed pool
  * @param poolSeed   seed `GraphGen.queries` drew the pool with
  */
final case class Workload(
    name: String,
    dataset: String,
    k: Int,
    batch: Int,
    deadlineMs: Long,
    poolSize: Int,
    poolSeed: Long,
)

object Workloads {

  val all: Seq[Workload] = Seq(
    // Theorem 4.8 skips verification at k = 4; per-query cost is dominated
    // by O(|V|) set-up, and thousands of short queries expose QueryRunner's
    // scheduling cost.
    Workload("sparse-gg-k4", "gg", k = 4, batch = 2000, deadlineMs = 2000,
      poolSize = 8000, poolSeed = 4004L),
    // Verification dominates; the corridor is nearly the whole graph, and the
    // heavy-tailed per-query cost stresses QueryRunner's static split.
    Workload("dense-wn-k6", "wn", k = 6, batch = 200, deadlineMs = 10000,
      poolSize = 1000, poolSeed = 6006L),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}

/** 64-bit digests of sorted encoded edge arrays (FNV-1a over the longs). */
object Digest {
  def edges(sorted: Array[Long]): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < sorted.length) {
      h = (h ^ sorted(i)) * 0x100000001b3L
      h ^= h >>> 29
      i += 1
    }
    h
  }

  /** `encodedEdges` lists edges by source, then by sorted destination. */
  def graph(g: LocalGraph): Long = edges(g.encodedEdges)

  def hex(d: Long): String = f"$d%016x"
}

/** A query with its expected SPG_k(s,t): edge count and [[Digest]]. */
final case class Expected(s: Int, t: Int, edges: Int, digest: Long) {
  /** True iff the sorted edge array is the expected SPG. */
  def matches(sorted: Array[Long]): Boolean = sorted.length == edges && Digest.edges(sorted) == digest
}

/** The committed answer pool of a [[Workload]]. */
final class Pool(val queries: Array[Expected])

object Pool {

  def file(root: Path, w: Workload): Path =
    root.resolve("perfbench").resolve("expected").resolve(s"${w.name}.tsv")

  /** First line of the pool file; it pins the graph the answers belong to. */
  def header(w: Workload, g: LocalGraph): String =
    s"# workload=${w.name} dataset=${w.dataset} k=${w.k} n=${g.n} m=${g.m} " +
      s"graph=${Digest.hex(Digest.graph(g))} pool=${w.poolSize} pool_seed=${w.poolSeed}"

  def write(root: Path, w: Workload, g: LocalGraph, rows: Seq[Expected]): Unit = {
    val lines = Seq(header(w, g), "# s\tt\tedges\tdigest") ++
      rows.map(e => s"${e.s}\t${e.t}\t${e.edges}\t${Digest.hex(e.digest)}")
    Files.write(file(root, w), lines.asJava, StandardCharsets.UTF_8)
  }

  /** Load the pool and check it was made for this very graph. */
  def load(root: Path, w: Workload, g: LocalGraph): Pool = {
    val lines = Files.readAllLines(file(root, w), StandardCharsets.UTF_8).asScala
    val want  = header(w, g)
    if (!lines.headOption.contains(want))
      throw new IllegalStateException(
        s"${file(root, w)} was made for another graph or pool; regenerate it with " +
          s"`python3 perfbench/run.py --make-expected ${w.name}`\n  file: ${lines.headOption.getOrElse("")}\n  want: $want")
    val rows = lines.iterator.filterNot(_.startsWith("#")).map { l =>
      val f = l.split('\t')
      Expected(f(0).toInt, f(1).toInt, f(2).toInt, java.lang.Long.parseUnsignedLong(f(3), 16))
    }.toArray
    require(rows.length == w.poolSize, s"${file(root, w)}: ${rows.length} rows, want ${w.poolSize}")
    new Pool(rows)
  }
}

/** Seeded draw of pool indices without replacement; reshuffles when the
  * pool is used up, so a long run cycles through every query.
  */
final class Draw(size: Int, seed: Long) {
  private val rnd   = new Random(seed)
  private val order = Array.tabulate(size)(identity)
  private var pos   = size

  def next(): Int = {
    if (pos == size) { shuffle(); pos = 0 }
    pos += 1
    order(pos - 1)
  }

  def take(count: Int): Array[Int] = Array.fill(count)(next())

  private def shuffle(): Unit = {
    var i = size - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val x = order(i); order(i) = order(j); order(j) = x
      i -= 1
    }
  }
}
