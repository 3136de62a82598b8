package repro.distributed

import org.apache.spark.graphx._
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** EVE over a GraphX vertex/edge-RDD graph.
  *
  * Only the work that scales with the whole graph runs on the cluster:
  *  1. bounded BFS distances from s and to t — one Pregel run on a
  *     (Δ(s,v), Δ(v,t)) pair ([[distances]]);
  *  2. one triplet filter that keeps the edges of the window G^k_st,
  *     Δ(s,u) + 1 + Δ(v,t) ≤ k ([[repro.core.Bfs.inWindow]]).
  *
  * The window holds every ≤k-hop simple s-t path, and for its corridor
  * vertices distances in G^k_st equal those in G, so the sequential
  * [[repro.core.Eve]] on the collected window builds the same corridor and
  * the same SPG (DESIGN.md §6).
  *
  * Entry/exit are DataFrames of (src, dst) Long columns. The graph runs on
  * the input's own VertexIds; only the window's vertices are compacted to
  * dense Int ids, in ascending order, and mapped back at exit.
  */
object DistEve {

  private val Inf = Bfs.Inf

  private def min2(a: (Int, Int), b: (Int, Int)): (Int, Int) =
    (math.min(a._1, b._1), math.min(a._2, b._2))

  /** (Δ(s,v), Δ(v,t)) at every vertex v of `graph`, Inf beyond k. Δs travels
    * along out-edges and Δt against them, in the same supersteps.
    */
  private[distributed] def distances[VD](
      graph: Graph[VD, Int], s: VertexId, t: VertexId, k: Int): Graph[(Int, Int), Int] = {
    val init = graph.mapVertices((id, _) => (if (id == s) 0 else Inf, if (id == t) 0 else Inf))
    try
      Pregel(init, (Inf, Inf), maxIterations = k, activeDirection = EdgeDirection.Either)(
        vprog = (_, attr, msg) => min2(attr, msg),
        sendMsg = tr => {
          val fwd = tr.srcAttr._1 + 1
          val bwd = tr.dstAttr._2 + 1
          (if (fwd < tr.dstAttr._1) Iterator.single((tr.dstId, (fwd, Inf))) else Iterator.empty) ++
            (if (bwd < tr.srcAttr._2) Iterator.single((tr.srcId, (Inf, bwd))) else Iterator.empty)
        },
        mergeMsg = min2,
      )
    finally init.unpersist(blocking = false)
  }

  /** Compute SPG_k(s,t) and return its edges as a DataFrame (src, dst). */
  def spg(spark: SparkSession, edgesDf: DataFrame, s: Long, t: Long, k: Int): DataFrame = {
    require(s != t, "query requires s != t")
    require(k >= 1, "hop constraint must be >= 1")
    import spark.implicits._
    val graph = Graph.fromEdgeTuples(
      edgesDf.select("src", "dst").rdd
        .map(r => (r.getLong(0), r.getLong(1)))
        .filter { case (u, v) => u != v },
      defaultValue = 0)
    val dist = distances(graph, s, t, k)
    // The window's edges; none when Δ(s,t) > k or an endpoint has no edges.
    val window =
      try dist.triplets
        .filter(tr => Bfs.inWindow(tr.srcAttr._1, tr.dstAttr._2, k))
        .map(tr => (tr.srcId, tr.dstId))
        .collect()
      finally { dist.unpersist(blocking = false); graph.unpersist(blocking = false) }
    if (window.isEmpty) return Seq.empty[(Long, Long)].toDF("src", "dst")

    // Dense id i stands for VertexId ids(i). A non-empty window holds s's
    // and t's edges on a shortest s-t path, so both endpoints are in `ids`.
    val ids = window.flatMap { case (u, v) => Array(u, v) }.distinct.sorted
    def dense(v: VertexId): Int = java.util.Arrays.binarySearch(ids, v)
    val local = LocalGraph.fromEncodedEdges(
      ids.length, window.map { case (u, v) => LocalGraph.enc(dense(u), dense(v)) })
    val spg = Eve.spg(local, dense(s), dense(t), k)

    // Dense ids are ranks of the VertexIds, so the output stays sorted.
    spg.toSeq
      .map(e => (ids(LocalGraph.src(e)), ids(LocalGraph.dst(e))))
      .toDF("src", "dst")
  }
}
