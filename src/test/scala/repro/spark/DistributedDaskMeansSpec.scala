package repro.spark

import org.apache.spark.sql.functions.{col, spark_partition_id}
import repro.{SparkSpec, TestData}
import repro.baselines.Lloyd
import repro.core.{KMeans, Vec}
import repro.spatial.SpatialData

class DistributedDaskMeansSpec extends SparkSpec {

  private def fixture(n: Int, name: String = "Argo-PC") = {
    val df = SpatialData.dataset(spark, name, n)
    val data = SpatialData.collectPoints(df)
    (df, data)
  }

  test("distributed run matches serial Lloyd from the same init") {
    val (df, data) = fixture(3000)
    val k = 20
    val init = KMeans.initCentroids(data, k, 1L)
    val fitted = DistributedDaskMeans.fit(df, k, maxIters = 8, numPartitions = 6, init = Some(init))
    try {
      val ref = new Lloyd().run(data, k, 8, init)
      assert(fitted.iterations == ref.iterations)
      fitted.centroids.indices.foreach { j =>
        assert(Vec.dist(fitted.centroids(j), ref.centroids(j)) < 1e-6, s"centroid $j")
      }
    } finally DistributedDaskMeans.cleanup(fitted)
  }

  test("partition count does not change the result") {
    val (df, data) = fixture(2000, "T-drive")
    val k = 12
    val init = KMeans.initCentroids(data, k, 2L)
    val a = DistributedDaskMeans.fit(df, k, 6, numPartitions = 2, init = Some(init))
    val b = DistributedDaskMeans.fit(df, k, 6, numPartitions = 8, init = Some(init))
    try {
      a.centroids.indices.foreach { j =>
        assert(Vec.dist(a.centroids(j), b.centroids(j)) < 1e-6)
      }
    } finally { DistributedDaskMeans.cleanup(a); DistributedDaskMeans.cleanup(b) }
  }

  test("assignments DataFrame matches brute-force nearest centroid") {
    val (df, data) = fixture(1500, "3D-RD")
    val k = 10
    val init = KMeans.initCentroids(data, k, 3L)
    val fitted = DistributedDaskMeans.fit(df, k, 5, numPartitions = 4, init = Some(init))
    try {
      val assigned = DistributedDaskMeans.assignments(df, fitted, numPartitions = 4)
        .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
      assert(assigned.size == 1500)
      // spot check a sample against brute force on the final centroids
      val ref = new Lloyd().run(data, k, 5, init)
      val mismatches = data.indices.count(i => assigned(i.toLong) != ref.assignments(i))
      assert(mismatches == 0, s"$mismatches mismatched assignments")
    } finally DistributedDaskMeans.cleanup(fitted)
  }

  test("cleanup drops the partition cache") {
    val (df, _) = fixture(800, "Porto")
    val before = PartitionIndexCache.size
    val fitted = DistributedDaskMeans.fit(df, 5, 3, numPartitions = 3)
    assert(PartitionIndexCache.size > before)
    DistributedDaskMeans.cleanup(fitted)
    assert(PartitionIndexCache.size == before)
  }

  test("deterministic seeded initial centroids") {
    val (df, _) = fixture(500, "T-drive")
    val a = DistributedDaskMeans.initialCentroids(df, 7, 5L)
    val b = DistributedDaskMeans.initialCentroids(df, 7, 5L)
    a.indices.foreach(i => assert(a(i).sameElements(b(i))))
    val c = DistributedDaskMeans.initialCentroids(df, 7, 6L)
    assert(a.zip(c).exists { case (x, y) => !x.sameElements(y) })
  }

  test("batch pruning fires in the distributed operator") {
    val (df, _) = fixture(4000, "Argo-AVL")
    val fitted = DistributedDaskMeans.fit(df, 15, 6, numPartitions = 4)
    try assert(fitted.batchPrunedVectors > 0)
    finally DistributedDaskMeans.cleanup(fitted)
  }

  test("every partition's pruned count is kept, also where cluster 0 is empty") {
    import spark.implicits._
    // Point 0 lies far from the rest and is initial centroid 0, so cluster 0
    // holds only it; each partition without it batch-assigns its whole root
    // to cluster 1 in every iteration.
    val data = Array(1e6, 1e6) +: TestData.blobs(2000, 2, 1, 1.0, 11L)
    val df = data.zipWithIndex.map { case (p, i) => (i.toLong, p.toSeq) }.toSeq.toDF("id", "features")
    val pid = df.repartition(4, col("id")).select(col("id"), spark_partition_id()).as[(Long, Int)].collect()
    val outlierPid = pid.find(_._1 == 0L).get._2
    val f = pid.count(_._2 == outlierPid)
    val fitted = DistributedDaskMeans.fit(df, 2, 5, numPartitions = 4, init = Some(Array(data(0), data(1))))
    try assert(fitted.batchPrunedVectors >= fitted.iterations.toLong * (data.length - f),
      s"pruned ${fitted.batchPrunedVectors} over ${fitted.iterations} iterations, n=${data.length} f=$f")
    finally DistributedDaskMeans.cleanup(fitted)
  }

  test("a fit that throws drops its cache entries and its persisted frame") {
    val (df, _) = fixture(600, "Porto")
    val cached = PartitionIndexCache.size
    val persisted = spark.sparkContext.getPersistentRDDs.size
    // 1-d initial centroids over 2-d points: each task caches its tree, then
    // fails on its first point-centroid distance.
    val init = Array.tabulate(3)(j => Array(j.toDouble))
    intercept[Exception](DistributedDaskMeans.fit(df, 3, 3, numPartitions = 3, init = Some(init)))
    // Too few initial centroids: rejected on the driver after the frame is persisted.
    intercept[IllegalArgumentException](DistributedDaskMeans.fit(df, 3, 3, numPartitions = 3, init = Some(init.take(2))))
    assert(PartitionIndexCache.size == cached)
    assert(spark.sparkContext.getPersistentRDDs.size == persisted)
  }

  test("sse agrees with a serial computation") {
    val (df, data) = fixture(1000, "Shapenet")
    val k = 8
    val init = KMeans.initCentroids(data, k, 4L)
    val fitted = DistributedDaskMeans.fit(df, k, 4, numPartitions = 4, init = Some(init))
    try {
      val dist = DistributedDaskMeans.sse(df, fitted.centroids)
      val serial = data.map { p =>
        fitted.centroids.map(c => Vec.dist2(p, c)).min
      }.sum
      assert(math.abs(dist - serial) / math.max(1.0, serial) < 1e-9)
    } finally DistributedDaskMeans.cleanup(fitted)
  }

  test("MLlib baseline reaches a comparable SSE on the same data") {
    val (df, data) = fixture(2000, "Argo-PC")
    val k = 10
    val init = KMeans.initCentroids(data, k, 5L)
    val fitted = DistributedDaskMeans.fit(df, k, 10, numPartitions = 4, init = Some(init))
    DistributedDaskMeans.cleanup(fitted)
    val ours = DistributedDaskMeans.sse(df, fitted.centroids)
    val ml = MllibLloyd.fit(df, k, 10)
    // different inits: costs need not match, but must be the same order
    assert(ml.trainingCost > 0 && ours > 0)
    assert(ours < ml.trainingCost * 3 && ml.trainingCost < ours * 3,
      s"ours=$ours mllib=${ml.trainingCost}")
  }
}
