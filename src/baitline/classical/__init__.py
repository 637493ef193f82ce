"""Random forest and linear SVM over handcrafted feature vectors."""
