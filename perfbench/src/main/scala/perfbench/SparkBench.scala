package perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel

import repro.core.BallTree
import repro.estimator.MemoryEstimator
import repro.spark.{DistributedDaskMeans, PartitionIndexCache, Simplify}
import repro.spatial.SpatialData

import scala.collection.mutable

/** Job, stage and task figures of the jobs started while the local property
  * [[StageListener.Tag]] is set; the tag names the traced call.
  */
final class StageListener extends SparkListener {
  import StageListener._

  private val stageTag = mutable.Map.empty[Int, String]
  private val markerJobs = mutable.Set.empty[Int]
  val jobs: mutable.Map[String, Int] = mutable.Map.empty[String, Int].withDefaultValue(0)
  val tasks: mutable.ArrayBuffer[Task] = mutable.ArrayBuffer.empty
  val stages: mutable.ArrayBuffer[Stage] = mutable.ArrayBuffer.empty
  @volatile private var marker = new CountDownLatch(1)

  def reset(): Unit = synchronized {
    stageTag.clear(); jobs.clear(); tasks.clear(); stages.clear()
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(Tag))) match {
      case Some(Marker) => markerJobs += e.jobId
      case Some(tag) => jobs(tag) += 1; e.stageIds.foreach(stageTag(_) = tag)
      case None =>
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (markerJobs.remove(e.jobId)) marker.countDown()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageTag.get(e.stageId).foreach { tag =>
      val m = Option(e.taskMetrics)
      tasks += Task(tag, e.stageId, e.taskInfo.duration,
        m.map(_.resultSize).getOrElse(0L), m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stageTag.get(i.stageId).foreach { tag =>
      stages += Stage(tag, i.stageId, i.numTasks, i.completionTime.getOrElse(0L) - i.submissionTime.getOrElse(0L))
    }
  }

  /** Run a marker job and wait until the listener has seen it end: the
    * listener bus delivers events in order, so every earlier event is in.
    */
  def drain(sc: SparkContext): Unit = {
    val latch = new CountDownLatch(1)
    marker = latch
    sc.setLocalProperty(Tag, Marker)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setLocalProperty(Tag, null)
    require(latch.await(30, TimeUnit.SECONDS), "Spark listener did not drain")
  }
}

object StageListener {
  val Tag = "perfbench.span"
  val Marker = "perfbench.marker"

  final case class Task(tag: String, stage: Int, durationMs: Long, resultBytes: Long, shuffleWriteBytes: Long)
  final case class Stage(tag: String, id: Int, numTasks: Int, wallMs: Long)
}

/** The Spark workload: `Simplify.simplify` on a persisted DataFrame, every
  * rep checked against the Lloyd reference (weights = Lloyd's cluster
  * sizes, centroids within 1e-9).
  */
object SparkBench {
  import Bench._
  import Measure._

  /** Rows of a simplify result, ordered by cluster: centroids and weights. */
  private def simplify(df: DataFrame, w: SparkWorkload, seed: Long): (Array[Array[Double]], Array[Long]) = {
    val rows = Simplify.simplify(df, w.k, w.maxIters, w.leafCapacity, seed).collect().sortBy(_.getInt(0))
    (rows.map(_.getSeq[Double](1).toArray), rows.map(_.getLong(2)))
  }

  private def cachedRdds(sc: SparkContext): Int = sc.getRDDStorageInfo.count(_.isCached)

  /** Waits until only the input frame is cached: a fit unpersists its own
    * frame without blocking.
    */
  private def awaitFitUnpersisted(sc: SparkContext): Unit = {
    val deadline = System.nanoTime() + 10_000_000_000L
    while (cachedRdds(sc) > 1 && System.nanoTime() < deadline) Thread.sleep(10)
  }

  /** Fails the run unless `df` is persisted with every partition in the
    * block manager: the timed reps must read the generated points from that
    * cache, not generate them again.
    */
  private def requireCached(df: DataFrame): Unit = {
    val sc = df.sparkSession.sparkContext
    awaitFitUnpersisted(sc)
    val cached = sc.getRDDStorageInfo.filter(_.isCached)
    require(df.storageLevel != StorageLevel.NONE && cached.length == 1 &&
        cached.head.numCachedPartitions == cached.head.numPartitions,
      s"input frame is not fully cached: ${cached.map(i => s"${i.name} ${i.numCachedPartitions}/${i.numPartitions}").mkString("; ")}")
  }

  def run(ctx: Ctx, w: SparkWorkload): Outcome = {
    val spark = ctx.spark
    val sc = spark.sparkContext
    // Spark's cache manager matches frames by plan, so a frame persisted
    // while an earlier generation is still cached would only read that
    // cache: each generation but the last is unpersisted before the next.
    val gens = (1 to SetupReps).map { i =>
      val g = timed { val df = SpatialData.dataset(spark, w.dataset, w.n, ctx.seed).persist(); df.count(); df }
      if (i < SetupReps) g._1.unpersist(blocking = true)
      g
    }
    val df = gens.last._1
    val genS = median(gens.map(_._2))
    requireCached(df)

    // Outside set-up and the timed reps.
    val data = SpatialData.collectPoints(df)
    val init = DistributedDaskMeans.initialCentroids(df, w.k, ctx.seed)
    val (ref, cached) = Reference.getOrCompute(ctx.referenceDir, data, init, w.maxIters)

    val (_, warmS) = timed((1 to WarmupReps).foreach(_ => simplify(df, w, ctx.seed)))
    val setupS = ctx.sessionS + genS + warmS

    requireCached(df)
    val reps = repeatFor(ctx.untracedSeconds, MinReps)(simplify(df, w, ctx.seed))
    val runS = median(reps.map(_._2))
    val (lastCs, lastWeights) = reps.last._1
    var failed = reps.count { case ((cs, ws), _) => !ref.matchesWeights(cs, ws) }
    var attempted = reps.length
    val parts = sc.defaultParallelism
    val n = data.length; val d = data(0).length

    val listener = new StageListener
    sc.addSparkListener(listener)
    try {
      // The PartitionIndexCache entries a finished fit holds, before vs after
      // cleanup; the fit's own cached frame is released and pending listener
      // events are settled first so that only the entries differ.
      requireCached(df)
      val extraBytes = median((1 to SparkHeapReps).map { _ =>
        val fitted = DistributedDaskMeans.fit(df, w.k, w.maxIters, w.leafCapacity, seed = ctx.seed)
        awaitFitUnpersisted(sc)
        listener.drain(sc)
        val held = heapAfterGc()
        DistributedDaskMeans.cleanup(fitted)
        (held - heapAfterGc()).toDouble
      })

      val summary = f"${w.name}: n=$n d=$d k=${w.k} f=${w.leafCapacity} partitions=$parts reps=${reps.length} " +
        f"run_s=$runS%.4f setup_s=$setupS%.3f extra_heap_mb=${extraBytes / 1e6}%.3f " +
        f"lloyd_s=${ref.lloydS}%.3f${if (cached) " (cached)" else ""} " + quartiles(reps.map(_._2))

      if (!ctx.trace) {
        val metrics = Map("run_s" -> runS, "setup_s" -> setupS, "extra_heap_mb" -> extraBytes / 1e6)
        return Outcome(attempted, failed, metrics, Nil, summary)
      }

      requireCached(df)
      final case class Traced(tracer: Tracer, iterations: Int, pruned: Long, nodes: Long, depth: Int,
          leaves: Long, dist: Long, tasks: Seq[StageListener.Task], stages: Seq[StageListener.Stage], jobs: Int)
      var id = 0
      val traced = repeatFor(ctx.seconds / 2, MinReps) {
        id += 1
        listener.reset()
        val tr = new Tracer(s"${w.name}-${ctx.seed}-$id", null)
        val (cs, weights, fitted, inspected) = tr.span("simplify") {
          sc.setLocalProperty(StageListener.Tag, "fit")
          val fitted = tr.span("spark.fit")(DistributedDaskMeans.fit(df, w.k, w.maxIters, w.leafCapacity, seed = ctx.seed))
          val inspected = tr.span("inspect") {
            val states = (0 until parts).flatMap(PartitionIndexCache.get(fitted.runId, _)).filter(_.state != null)
            val stats = states.map(e => BallTree.stats(e.state.tree.root))
            (states.map(_.state.tree.nodeCount.toLong).sum, stats.map(_.depth).max,
              stats.map(_.leafNodes.toLong).sum, states.map(_.counter.count).sum)
          }
          sc.setLocalProperty(StageListener.Tag, "assignments")
          val weights = tr.span("spark.assignments") {
            import spark.implicits._
            DistributedDaskMeans.assignments(df, fitted, w.leafCapacity)
              .groupBy("cluster").count().as[(Int, Long)].collect().toMap
          }
          sc.setLocalProperty(StageListener.Tag, null)
          tr.span("spark.cleanup")(DistributedDaskMeans.cleanup(fitted))
          (fitted.centroids, Array.tabulate(w.k)(j => weights.getOrElse(j, 0L)), fitted, inspected)
        }
        listener.drain(sc)
        // Self-check: the traced calls must give Simplify's answer.
        val same = cs.length == lastCs.length && cs.indices.forall(j => java.util.Arrays.equals(cs(j), lastCs(j))) &&
          java.util.Arrays.equals(weights, lastWeights)
        if (!same || !ref.matchesWeights(cs, weights)) failed += 1
        attempted += 1
        val (nodes, depth, leaves, dist) = inspected
        Traced(tr, fitted.iterations, fitted.batchPrunedVectors, nodes, depth, leaves, dist,
          listener.tasks.toSeq, listener.stages.toSeq, listener.jobs.values.sum)
      }

      val t = traced.head._1
      def med(g: Traced => Double): Double = median(traced.map(r => g(r._1)))
      def perStage(r: Traced, tag: String): Seq[(StageListener.Stage, Seq[Long])] =
        r.stages.filter(_.tag == tag).map(s => s -> r.tasks.filter(_.stage == s.id).map(_.durationMs))
      // Iteration stages: the per-partition assignment over the cached trees.
      def skew(r: Traced): Double = {
        val ratios = perStage(r, "fit").collect { case (s, ds) if s.numTasks == parts && ds.length >= 2 =>
          ds.max.toDouble / math.max(1L, median(ds.map(_.toDouble)).toLong)
        }
        if (ratios.isEmpty) 1.0 else ratios.sum / ratios.length
      }
      def schedOverheadS(r: Traced): Double =
        (perStage(r, "fit") ++ perStage(r, "assignments")).map { case (s, ds) =>
          (s.wallMs - (if (ds.isEmpty) 0L else ds.max)).toDouble
        }.sum / 1e3
      val pointIters = n.toDouble * t.iterations
      val gflop = t.dist * 3.0 * d / 1e9
      val gbytes = t.dist * 2.0 * 8 * d / 1e9
      val metrics = zeros("core.") ++ Map(
        "spatial.gen_s" -> genS,
        "core.point_index.nodes" -> t.nodes.toDouble,
        "core.point_index.depth" -> t.depth.toDouble,
        "core.point_index.leaf_fill" -> n.toDouble / t.leaves,
        "core.assign.dist" -> t.dist.toDouble,
        "core.assign.dist_per_point_iter" -> t.dist / pointIters,
        "core.kernel.gflop" -> gflop,
        "core.kernel.gbytes" -> gbytes,
        "core.kernel.flop_per_byte" -> gflop / gbytes,
        "estimator.leaf_capacity" -> w.leafCapacity.toDouble,
        "estimator.mem_est_ratio" -> MemoryEstimator.daskMeansExtraBytes(n, w.k, d, w.leafCapacity) / extraBytes,
        "spark.fit_s" -> med(_.tracer.seconds("spark.fit")),
        "spark.assignments_s" -> med(_.tracer.seconds("spark.assignments")),
        "spark.cleanup_s" -> med(_.tracer.seconds("spark.cleanup")),
        "spark.jobs" -> t.jobs.toDouble,
        "spark.tasks" -> t.tasks.length.toDouble,
        "spark.task_run_s" -> med(_.tasks.map(_.durationMs).sum / 1e3),
        "spark.task_skew" -> med(skew),
        "spark.sched_overhead_s" -> med(schedOverheadS),
        "spark.result_mb" -> med(_.tasks.map(_.resultBytes).sum / 1e6),
        "spark.shuffle_write_mb" -> med(_.tasks.map(_.shuffleWriteBytes).sum / 1e6),
        // Per iteration the driver broadcasts k centroids and k inter bounds;
        // assignments broadcast the final centroids once.
        "spark.broadcast_mb" -> (t.iterations.toDouble * w.k * (d + 1) + w.k * d) * 8 / 1e6,
        // As FitResult reports it: a known undercount (a partition's pruned
        // total is lost when cluster 0 is empty there).
        "spark.pruned_frac" -> t.pruned / pointIters,
        "trace.unattributed_s" -> med(_.tracer.selfSeconds("simplify")),
        "trace.overhead_frac" -> (median(traced.map(_._2)) / runS - 1),
        "baseline.lloyd_s" -> ref.lloydS,
      )
      Outcome(attempted, failed, metrics, traced.flatMap(_._1.tracer.jsonObjects), summary)
    } finally {
      sc.removeSparkListener(listener)
      df.unpersist(blocking = true)
    }
  }
}
