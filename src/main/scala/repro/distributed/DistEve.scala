package repro.distributed

import org.apache.spark.graphx._
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** EVE over a GraphX vertex/edge-RDD graph.
  *
  * Only the work that scales with the whole graph runs on the cluster:
  *  1. bounded BFS distances from s and to t — two Pregel runs;
  *  2. one triplet filter that keeps the edges of the window G^k_st,
  *     Δ(s,u) + 1 + Δ(v,t) ≤ k ([[repro.core.Bfs.inWindow]]).
  *
  * The window holds every ≤k-hop simple s-t path, and for its corridor
  * vertices distances in G^k_st equal those in G, so the sequential
  * [[repro.core.Eve]] on the collected window builds the same corridor and
  * the same SPG (DESIGN.md §6).
  *
  * Entry/exit are DataFrames of (src, dst) Long columns. The VertexIds are
  * compacted to dense Int ids once at entry and mapped back at exit.
  */
object DistEve {

  private val Inf = Bfs.Inf

  /** k-bounded BFS distance from `root` via Pregel. `reverse` walks edges
    * backwards (distance *to* root).
    */
  private[distributed] def pregelDist(
      graph: Graph[Int, _], root: VertexId, k: Int, reverse: Boolean): VertexRDD[Int] = {
    val init = graph.mapVertices((id, _) => if (id == root) 0 else Inf)
    val dir  = if (reverse) EdgeDirection.In else EdgeDirection.Out
    val res = Pregel(init, Inf, maxIterations = k, activeDirection = dir)(
      vprog = (_, attr, msg) => math.min(attr, msg),
      sendMsg = triplet =>
        if (!reverse) {
          if (triplet.srcAttr != Inf && triplet.srcAttr + 1 < triplet.dstAttr)
            Iterator((triplet.dstId, triplet.srcAttr + 1))
          else Iterator.empty
        } else {
          if (triplet.dstAttr != Inf && triplet.dstAttr + 1 < triplet.srcAttr)
            Iterator((triplet.srcId, triplet.dstAttr + 1))
          else Iterator.empty
        },
      mergeMsg = math.min,
    )
    res.vertices
  }

  /** Compute SPG_k(s,t) and return its edges as a DataFrame (src, dst). */
  def spg(spark: SparkSession, edgesDf: DataFrame, s: Long, t: Long, k: Int): DataFrame = {
    require(s != t, "query requires s != t")
    require(k >= 1, "hop constraint must be >= 1")
    import spark.implicits._
    def empty: DataFrame = Seq.empty[(Long, Long)].toDF("src", "dst")
    val sc = spark.sparkContext
    val rawEdges: RDD[(VertexId, VertexId)] =
      edgesDf.select("src", "dst").rdd
        .map(r => (r.getLong(0), r.getLong(1)))
        .filter { case (u, v) => u != v }
        .distinct()

    // Dense id i stands for VertexId ids(i).
    val ids = rawEdges.flatMap { case (u, v) => Iterator(u, v) }.distinct().collect().sorted
    require(ids.length < Int.MaxValue, s"${ids.length} vertices do not fit Int ids")
    val sC = java.util.Arrays.binarySearch(ids, s)
    val tC = java.util.Arrays.binarySearch(ids, t)
    if (sC < 0 || tC < 0) return empty // an endpoint without edges
    val bcIds = sc.broadcast(ids)
    val edgeRdd: RDD[(VertexId, VertexId)] = rawEdges.mapPartitions { it =>
      val ids = bcIds.value
      it.map { case (u, v) =>
        (java.util.Arrays.binarySearch(ids, u).toLong, java.util.Arrays.binarySearch(ids, v).toLong)
      }
    }
    val graph = Graph.fromEdgeTuples(edgeRdd, defaultValue = 0).cache()

    val dF = pregelDist(graph, sC, k, reverse = false)
    val dB = pregelDist(graph, tC, k, reverse = true)
    // The window's edges in dense ids; none when Δ(s,t) > k.
    val window = graph
      .outerJoinVertices(dF)((_, _, d) => d.getOrElse(Inf))
      .outerJoinVertices(dB)((_, df, d) => (df, d.getOrElse(Inf)))
      .triplets
      .flatMap { tr =>
        if (Bfs.inWindow(tr.srcAttr._1, tr.dstAttr._2, k))
          Iterator.single(LocalGraph.enc(tr.srcId.toInt, tr.dstId.toInt))
        else Iterator.empty
      }
      .collect()
    val spg = Eve.spg(LocalGraph.fromEncodedEdges(ids.length, window), sC, tC, k)

    // Dense ids are ranks of the VertexIds, so the output stays sorted.
    spg.toSeq
      .map(e => (ids(LocalGraph.src(e)), ids(LocalGraph.dst(e))))
      .toDF("src", "dst")
  }
}
