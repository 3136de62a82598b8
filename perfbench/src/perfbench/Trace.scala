package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import repro.core._

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One traced call: which query, which layer call, when, and how many bytes
  * the calling thread allocated during it.
  */
final case class Span(query: Int, name: String, startNs: Long, endNs: Long, allocBytes: Long)

/** Spans kept in memory during the run and written when it ends. */
final class SpanLog {
  val spans = new ArrayBuffer[Span](1 << 16)

  @inline def apply[A](query: Int, name: String)(body: => A): A = {
    val a0 = Jvm.allocated()
    val t0 = System.nanoTime()
    val r  = body
    val t1 = System.nanoTime()
    spans += Span(query, name, t0, t1, Jvm.allocated() - a0)
    r
  }

  /** Σ duration (ns) and Σ allocation (bytes) over spans with this name. */
  def totals(name: String): (Long, Long) = {
    var ns = 0L; var bytes = 0L
    spans.foreach { s => if (s.name == name) { ns += s.endNs - s.startNs; bytes += s.allocBytes } }
    (ns, bytes)
  }

  /** TSV with times relative to the first span. */
  def write(file: Path): Unit = {
    val origin = if (spans.isEmpty) 0L else spans.head.startNs
    val lines = "query\tspan\tstart_ns\tend_ns\talloc_bytes" +:
      spans.map(s => s"${s.query}\t${s.name}\t${s.startNs - origin}\t${s.endNs - origin}\t${s.allocBytes}")
    Files.createDirectories(file.getParent)
    Files.write(file, lines.asJava, StandardCharsets.UTF_8)
  }
}

/** [[repro.core.Eve.run]]'s calls into each layer, in its order and with its
  * default configuration, each wrapped in a span. [[LayerProbe]] checks
  * every answer against `Eve.run`'s, so this replica cannot drift from it.
  */
object TracedEve {
  val Distances   = "Bfs.distances"
  val PropagateF  = "EssentialVertices.propagate:fwd"
  val PropagateB  = "EssentialVertices.propagate:bwd"
  val Labeling    = "EdgeLabeling.upperBound"
  val BoundarySp  = "Boundary.compute"
  val VerifierNew = "Verifier.<init>"
  val Verify      = "Verifier.verify"
  /** Theorem 4.8 (k ≤ 4): SPGu is the answer, copied into the result set. */
  val Exact       = "Eve.upperBoundIsExact"
  /** Result set → sorted edge array, and the definite-edge count. */
  val Collect     = "Eve.collect"

  final case class Out(
      dists: Bfs.Dists,
      evF: EvIndex,
      evB: EvIndex,
      ub: UpperBoundGraph,
      /** null when k ≤ 4 (no verification). */
      boundary: Boundary,
      edges: Array[Long],
  )

  def run(g: LocalGraph, s: Int, t: Int, k: Int, q: Int, span: SpanLog): Out = {
    val cfg   = EveConfig.Default
    val dists = span(q, Distances)(Bfs.distances(g, s, t, k, cfg.search))
    if (dists.fromS(t) > k) return Out(dists, null, null, null, null, Array.emptyLongArray)
    val evF = span(q, PropagateF)(EssentialVertices.propagate(g, s, t, k, dists.fromAll, cfg.pruning))
    val evB = span(q, PropagateB)(EssentialVertices.propagate(g.reverse, t, s, k, dists.toAll, cfg.pruning))
    val ub  = span(q, Labeling)(EdgeLabeling.upperBound(g, s, t, k, dists, evF, evB))
    var boundary: Boundary = null
    val resultSet: java.util.HashSet[java.lang.Long] =
      if (k <= 4) span(q, Exact) {
        val set = new java.util.HashSet[java.lang.Long]()
        ub.edges.foreach(e => set.add(e))
        set
      } else {
        boundary = span(q, BoundarySp)(Boundary.compute(ub))
        val verifier = span(q, VerifierNew)(new Verifier(ub, boundary, cfg.ordering, Deadline.None))
        span(q, Verify)(verifier.verify())
      }
    val edges = span(q, Collect) {
      val out = new Array[Long](resultSet.size())
      val it  = resultSet.iterator()
      var i   = 0
      while (it.hasNext) { out(i) = it.next(); i += 1 }
      java.util.Arrays.sort(out)
      ub.labels.count(_ == EdgeLabel.Definite)
      out
    }
    Out(dists, evF, evB, ub, boundary, edges)
  }
}

/** Runs queries through [[TracedEve]] and, alternately before or after it,
  * through the untraced `Eve.run`; accumulates the per-layer metrics. Work
  * counters are read from each layer's output after the traced calls, so
  * they cost the spans nothing.
  */
final class LayerProbe(g: LocalGraph, k: Int) {
  val spans = new SpanLog
  private var queries = 0L
  private var tracedNs, eveNs, eveAlloc = 0L
  private var visited, corridor, candidates, reached, setEntries = 0L
  private var spgu, definite, redundant, departures, arrivals, undetermined, witnessed = 0L

  /** Answer one query both ways and record the outcome in `tally`: the
    * traced edges must equal `Eve.run`'s, be non-empty, lie inside SPGu and
    * satisfy `expected`.
    */
  def query(s: Int, t: Int, tally: Tally)(expected: Array[Long] => Boolean): Unit = {
    val q = queries.toInt
    queries += 1
    def traced(): TracedEve.Out = {
      val t0  = System.nanoTime()
      val out = TracedEve.run(g, s, t, k, q, spans)
      tracedNs += System.nanoTime() - t0
      out
    }
    def untraced(): EveResult = {
      val a0 = Jvm.allocated()
      val t0 = System.nanoTime()
      val r  = Eve.run(g, s, t, k)
      eveNs += System.nanoTime() - t0
      eveAlloc += Jvm.allocated() - a0
      r
    }
    val (out, eve) =
      if (q % 2 == 0) { val o = traced(); (o, untraced()) }
      else { val e = untraced(); (traced(), e) }

    if (!java.util.Arrays.equals(out.edges, eve.edges))
      tally.wrongAnswer(s"traced pipeline drifted from Eve.run on ($s,$t)")
    else if (out.edges.isEmpty)
      tally.wrongAnswer(s"empty SPG for k-reachable ($s,$t)")
    else if (!subsetOf(out.edges, out.ub.edges))
      tally.wrongAnswer(s"SPG not inside SPGu on ($s,$t)")
    else if (!expected(out.edges))
      tally.wrongAnswer(s"SPG of ($s,$t) differs from the expected answer")
    else tally.ok()
    if (out.ub != null) countWork(out)
  }

  private def subsetOf(sorted: Array[Long], of: Array[Long]): Boolean = {
    val all = of.clone()
    java.util.Arrays.sort(all)
    sorted.forall(e => java.util.Arrays.binarySearch(all, e) >= 0)
  }

  private def countWork(o: TracedEve.Out): Unit = {
    val toAll = o.dists.toAll; val fromAll = o.dists.fromAll
    val lastF = o.evF.layers(k - 1); val lastB = o.evB.layers(k - 1)
    var y = 0
    while (y < g.n) {
      val ds = toAll(y); val dt = fromAll(y)
      if (ds < Bfs.Inf) visited += 1
      if (dt < Bfs.Inf) visited += 1
      if (ds + dt <= k) corridor += 1
      if (ds < k) {
        val outs = g.outAdj(y); var j = 0
        while (j < outs.length) { if (fromAll(outs(j)) <= k - 1 - ds) candidates += 1; j += 1 }
      }
      if (lastF(y) != null) { reached += 1; setEntries += lastF(y).length }
      if (lastB(y) != null) { reached += 1; setEntries += lastB(y).length }
      y += 1
    }
    val upper = o.ub.numEdges
    val defin = o.ub.labels.count(_ == EdgeLabel.Definite)
    spgu += upper
    definite += defin
    redundant += upper - o.edges.length
    if (o.boundary != null) {
      departures += o.boundary.isDeparture.count(identity)
      arrivals += o.boundary.isArrival.count(identity)
      undetermined += upper - defin
      witnessed += o.ub.undeterminedEdges.count(e => java.util.Arrays.binarySearch(o.edges, e) >= 0)
    }
  }

  def metrics: Seq[Metric] = {
    val n = queries.toDouble
    def ms(names: String*): Double  = names.map(spans.totals(_)._1).sum / 1e6 / n
    def kb(names: String*): Double  = names.map(spans.totals(_)._2).sum / 1024.0 / n
    def per(c: Long): Double        = c / n
    def frac(a: Long, b: Long)      = Stats.ratio(a.toDouble, b.toDouble)
    import TracedEve._
    val searchNs = spans.totals(Verify)._1.toDouble
    Seq(
      Metric("bfs.ms_per_query", ms(Distances), "ms"),
      Metric("bfs.alloc_kb_per_query", kb(Distances), "KB"),
      Metric("bfs.visited_per_query", per(visited), "count"),
      Metric("bfs.corridor_ratio", frac(corridor, visited), "ratio"),
      Metric("essential.ms_per_query", ms(PropagateF, PropagateB), "ms"),
      Metric("essential.alloc_kb_per_query", kb(PropagateF, PropagateB), "KB"),
      Metric("essential.reached_per_query", per(reached), "count"),
      Metric("essential.set_entries_per_query", per(setEntries), "count"),
      Metric("labeling.ms_per_query", ms(Labeling), "ms"),
      Metric("labeling.alloc_kb_per_query", kb(Labeling), "KB"),
      Metric("labeling.candidate_edges_per_query", per(candidates), "count"),
      Metric("labeling.spgu_edges_per_query", per(spgu), "count"),
      Metric("labeling.definite_ratio", frac(definite, spgu), "ratio"),
      Metric("labeling.redundant_ratio", frac(redundant, spgu), "ratio"),
      Metric("boundary.ms_per_query", ms(BoundarySp), "ms"),
      Metric("boundary.departures_per_query", per(departures), "count"),
      Metric("boundary.arrivals_per_query", per(arrivals), "count"),
      Metric("verifier.setup_ms_per_query", ms(VerifierNew), "ms"),
      Metric("verifier.search_ms_per_query", ms(Verify), "ms"),
      Metric("verifier.alloc_kb_per_query", kb(VerifierNew, Verify), "KB"),
      Metric("verifier.undetermined_per_query", per(undetermined), "count"),
      Metric("verifier.ns_per_undetermined_edge", Stats.ratio(searchNs, undetermined.toDouble), "ns"),
      Metric("verifier.witnessed_ratio", frac(witnessed, undetermined), "ratio"),
      Metric("eve.ms_per_query", eveNs / 1e6 / n, "ms"),
      Metric("eve.alloc_kb_per_query", eveAlloc / 1024.0 / n, "KB"),
      Metric("trace.overhead_ratio", Stats.ratio(tracedNs.toDouble, eveNs.toDouble) - 1, "ratio"),
    )
  }

  def queryCount: Long = queries
}

/** Steps shared by the traced runs of every workload. */
object LayerRun {

  /** A query and the judge of its answer (sorted SPG edges). */
  final case class Query(s: Int, t: Int, expected: Array[Long] => Boolean)

  /** Warm up, then probe queries from `next` for `seconds` (at least one). */
  def probe(g: LocalGraph, k: Int, seconds: Double, tally: Tally, next: () => Query): LayerProbe = {
    def loop(p: LayerProbe, s: Double): LayerProbe = {
      val end = System.nanoTime() + (s * 1e9).toLong
      do { val q = next(); p.query(q.s, q.t, tally)(q.expected) } while (System.nanoTime() < end)
      p
    }
    loop(new LayerProbe(g, k), seconds / 4)
    loop(new LayerProbe(g, k), seconds)
  }

  def graphMetrics(g: LocalGraph, buildMs: Seq[Double]): Seq[Metric] = Seq(
    Metric("graph.build_ms", Stats.median(buildMs), "ms"),
    Metric("graph.mb", org.apache.spark.util.SizeEstimator.estimate(g) / (1024.0 * 1024.0), "MB"),
  )

  def gcMetrics(before: (Long, Long), after: (Long, Long)): Seq[Metric] = Seq(
    Metric("jvm.gc_ms_per_run", (after._2 - before._2).toDouble, "ms"),
    Metric("jvm.gc_count_per_run", (after._1 - before._1).toDouble, "count"),
  )

  /** Write the spans; return the report lines. */
  def finish(w: Workload, run: RunSpec, p: LayerProbe, tally: Tally): Seq[String] = {
    val file = run.buildDir.resolve("traces").resolve(s"${w.name}-seed${run.seed}.tsv")
    p.spans.write(file)
    Seq(
      s"workload ${w.name}: k=${w.k}, slots=${Sessions.slots}, seed ${run.seed}; traced ${p.queryCount} queries",
      s"failed_ratio ${Stats.fmt(tally.failedRatio)} (${tally.failed} of ${tally.attempted}, warm-up included)",
      s"spans: ${p.spans.spans.length} written to ${run.root.relativize(file)}",
    )
  }
}
