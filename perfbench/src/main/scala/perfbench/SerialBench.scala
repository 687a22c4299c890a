package perfbench

import repro.core._
import repro.estimator.MemoryEstimator
import repro.spatial.SpatialData

/** A serial workload: `DaskMeans.run` from a shared initial centroid set,
  * every rep checked against the Lloyd reference.
  */
object SerialBench {
  import Bench._
  import Measure._

  def run(ctx: Ctx, w: SerialWorkload): Outcome = {
    val gens = (1 to SetupReps).map(_ => timed(SpatialData.collectPoints(SpatialData.dataset(ctx.spark, w.dataset, w.n, ctx.seed))))
    val data = gens.last._1
    val genS = median(gens.map(_._2))
    val n = data.length; val d = data(0).length
    val (init, initS) = timed(KMeans.initCentroids(data, w.k, ctx.seed))

    // Outside set-up and the timed reps.
    val (ref, cached) = Reference.getOrCompute(ctx.referenceDir, data, init, w.maxIters)

    def fit(): (KMeansResult, Int) = {
      val f = w.leafCapacityFor(d)
      (new DaskMeans(leafCapacity = f).run(data, w.k, w.maxIters, init), f)
    }
    val (_, warmS) = timed((1 to WarmupReps).foreach(_ => fit()))
    val setupS = ctx.sessionS + genS + initS + warmS

    val reps = repeatFor(ctx.untracedSeconds, MinReps)(fit())
    val runS = median(reps.map(_._2))
    val last = reps.last._1._1
    val f = reps.last._1._2
    var failed = reps.count { case ((r, _), _) => !ref.matches(r.centroids, r.assignments) }
    var attempted = reps.length

    // The point index, the assignment state and one centroid index: what a
    // fit holds beyond the dataset.
    val extraBytes = median((1 to HeapReps).map { _ =>
      retainedBytes { () =>
        val tree = BallTree.build(data, f)
        (tree, new TreeAssignmentState(data, tree, w.k), new CentroidIndex(init, f, new DistanceCounter))
      }.toDouble
    })

    val summary = f"${w.name}: n=$n d=$d k=${w.k} f=$f iters=${last.iterations} reps=${reps.length} " +
      f"run_s=$runS%.4f setup_s=$setupS%.3f extra_heap_mb=${extraBytes / 1e6}%.3f " +
      f"lloyd_s=${ref.lloydS}%.3f${if (cached) " (cached)" else ""} " + quartiles(reps.map(_._2))

    if (!ctx.trace) {
      val metrics = Map("run_s" -> runS, "setup_s" -> setupS, "extra_heap_mb" -> extraBytes / 1e6)
      return Outcome(attempted, failed, metrics, Nil, summary)
    }

    var id = 0
    val traced = repeatFor(ctx.seconds / 2, MinReps) {
      id += 1
      TracedDaskMeans.run(data, w.k, w.maxIters, init, () => w.leafCapacityFor(d), s"${w.name}-${ctx.seed}-$id")
    }
    // Self-check: the traced loop must be DaskMeans.run, bit for bit.
    failed += traced.count { case (o, _) =>
      !TracedDaskMeans.sameRun(o, last) || !ref.matches(o.centroids, o.assignments)
    }
    attempted += traced.length

    val o = traced.head._1
    def med(g: Tracer => Double): Double = median(traced.map(t => g(t._1.tracer)))
    val pointIters = n.toDouble * o.iterations
    val stats = BallTree.stats(o.tree.root)
    val assignDist = o.tracer.dist("assign").toDouble
    val assignS = med(_.seconds("assign"))
    val gflop = assignDist * 3 * d / 1e9 // d subtractions, d multiplies, d adds
    val gbytes = assignDist * 2 * 8 * d / 1e9 // both operand vectors read
    val metrics = zeros("spark.") ++ Map(
      "spatial.gen_s" -> genS,
      "core.point_index.build_s" -> med(_.seconds("point_index.build")),
      "core.point_index.nodes" -> o.tree.nodeCount.toDouble,
      "core.point_index.depth" -> stats.depth.toDouble,
      "core.point_index.leaf_fill" -> stats.avgLeafFill,
      "core.point_index.alloc_mb" -> med(_.allocMb("point_index.build")),
      "core.centroid_index.build_s" -> med(_.seconds("centroid_index.build")),
      "core.centroid_index.alloc_mb" -> med(_.allocMb("centroid_index.build")),
      "core.inter_bounds.s" -> med(_.seconds("inter_bounds")),
      "core.inter_bounds.dist" -> o.tracer.dist("inter_bounds").toDouble,
      "core.assign.s" -> assignS,
      "core.assign.dist" -> assignDist,
      "core.assign.dist_per_point_iter" -> assignDist / pointIters,
      "core.assign.pruned_frac" -> o.pruned / pointIters,
      "core.assign.alloc_mb" -> med(_.allocMb("assign")),
      "core.kernel.gflop" -> gflop,
      "core.kernel.gbytes" -> gbytes,
      "core.kernel.flop_per_byte" -> gflop / gbytes,
      "core.kernel.gflop_per_s" -> gflop / assignS,
      "core.refine.s" -> med(_.seconds("refine")),
      "estimator.leaf_capacity" -> f.toDouble,
      "estimator.mem_est_ratio" -> MemoryEstimator.daskMeansExtraBytes(n, w.k, d, f) / extraBytes,
      "trace.unattributed_s" -> med(t => t.selfSeconds("run") + t.selfSeconds("iteration")),
      "trace.overhead_frac" -> (median(traced.map(_._2)) / runS - 1),
      "baseline.lloyd_s" -> ref.lloydS,
    )
    Outcome(attempted, failed, metrics, traced.flatMap(_._1.tracer.jsonObjects), summary)
  }
}
